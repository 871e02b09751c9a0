package counter

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/farray"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// FArray is the constant-read counter: a sum f-array over per-process
// counts (Jayanti, PODC 2002, ported to CAS — see internal/farray).
//
//	CounterRead:      1 step.
//	CounterIncrement: O(log N) steps.
//
// Theorem 1 of the paper (with f(N) = O(1)) proves the O(log N) increment
// is asymptotically optimal for any constant-read counter from
// read/write/CAS, so this implementation sits exactly on the tradeoff
// curve's other extreme from AAC.
type FArray struct {
	fa *farray.FArray
}

var _ Counter = (*FArray)(nil)

// NewFArray builds a constant-read counter for n >= 1 processes.
func NewFArray(pool *primitive.Pool, n int) (*FArray, error) {
	fa, err := farray.New(pool, n, farray.Sum)
	if err != nil {
		return nil, fmt.Errorf("counter: %w", err)
	}
	return &FArray{fa: fa}, nil
}

// Depth returns the f-array's leaf depth — the "logn" symbol of the
// certified Increment/Add bound (steps <= 8logn+2, 4logn+2 uncontended).
func (c *FArray) Depth() int { return c.fa.Depth() }

// Limit implements Counter (unbounded).
func (c *FArray) Limit() int64 { return 0 }

// Read implements Counter in exactly one step.
//
//tradeoffvet:bound steps<=1 reads<=1
func (c *FArray) Read(ctx primitive.Context) int64 {
	return c.fa.Read(ctx)
}

// Increment implements Counter in O(log N) steps.
//
//tradeoffvet:bound steps<=8logn+2 updates<=2logn+1
//tradeoffvet:bound steps<=4logn+2 uncontended
func (c *FArray) Increment(ctx primitive.Context) error {
	return c.Add(ctx, 1)
}

// Add implements Counter: delta increments land as one O(log N) update
// (the f-array's slot write plus a single leaf-to-root refresh), which is
// what makes batched increments amortize to O(log N / window) steps each.
//
//tradeoffvet:bound steps<=8logn+2 updates<=2logn+1
//tradeoffvet:bound steps<=4logn+2 uncontended
func (c *FArray) Add(ctx primitive.Context, delta int64) error {
	if delta < 0 {
		return &NegativeDeltaError{Delta: delta}
	}
	if delta == 0 {
		return nil
	}
	if _, err := c.fa.Add(ctx, delta); err != nil {
		return fmt.Errorf("counter: %w", err)
	}
	return nil
}

// CAS is the single-word counter: one register incremented with a CAS
// retry loop.
//
//	CounterRead:      1 step.
//	CounterIncrement: lock-free, 2 steps uncontended, unbounded under
//	                  contention (NOT wait-free).
//
// It seemingly beats Theorem 1's tradeoff (constant read, constant
// uncontended increment) — but Theorem 1 speaks about worst-case
// obstruction-free step complexity, and the CAS loop's worst case is
// unbounded. The E1 experiment shows the adversary driving its increments
// past any wait-free implementation's cost.
type CAS struct {
	cell  *primitive.Register
	limit int64
}

var _ Counter = (*CAS)(nil)

// NewCAS builds a single-word CAS-loop counter. limit > 0 makes it
// restricted-use (increments beyond limit return a LimitError); limit == 0
// makes it unbounded. A negative limit is rejected, matching the validation
// every other counter constructor performs.
func NewCAS(pool *primitive.Pool, limit int64) (*CAS, error) {
	if limit < 0 {
		return nil, fmt.Errorf("counter: negative restricted-use limit %d", limit)
	}
	return &CAS{cell: pool.New("casctr.cell", 0), limit: limit}, nil
}

// Limit implements Counter.
func (c *CAS) Limit() int64 { return c.limit }

// Read implements Counter in exactly one step.
//
//tradeoffvet:bound steps<=1 reads<=1
func (c *CAS) Read(ctx primitive.Context) int64 {
	return ctx.Read(c.cell)
}

// Increment implements Counter with a CAS retry loop.
//
//tradeoffvet:bound steps<=2 uncontended
func (c *CAS) Increment(ctx primitive.Context) error {
	return c.Add(ctx, 1)
}

// Add implements Counter: one CAS applies the whole delta, so a batched
// delta costs the same 2 uncontended steps as a single increment.
//
//tradeoffvet:bound steps<=2 uncontended
func (c *CAS) Add(ctx primitive.Context, delta int64) error {
	if delta < 0 {
		return &NegativeDeltaError{Delta: delta}
	}
	if delta == 0 {
		return nil
	}
	//tradeoffvet:casretry deliberately lock-free: a failed CAS means another increment landed (lock-freedom); the unbounded contended case is the E1 experiment's whole point
	for {
		cur := ctx.Read(c.cell)
		if c.limit > 0 && cur+delta > c.limit {
			return &LimitError{Limit: c.limit}
		}
		if ctx.CAS(c.cell, cur, cur+delta) {
			return nil
		}
	}
}
