// Package farray implements Jayanti-style f-arrays over word-sized
// registers ("f-arrays: implementation and applications", PODC 2002;
// reference [14] of Hendler & Khait, PODC 2014).
//
// An f-array maintains n single-writer slots and lets any process read
// f(slot_0, ..., slot_{n-1}) in O(1) shared-memory steps, while slot
// updates cost O(log n) steps: slots are the leaves of a complete binary
// tree whose internal nodes cache the aggregate of their subtrees, and an
// update refreshes each node on its leaf-to-root path
// (read-node/read-children/compute/CAS) until one CAS succeeds, at most
// twice — the helping pattern of Algorithm A's Propagate, which always
// refreshes twice.
//
// Jayanti's construction uses LL/SC; as the paper notes (Section 3), it
// "can be made to work also using CAS". The port is sound here because the
// package restricts aggregates to ones that are monotone under the allowed
// slot updates (Sum and Max over non-decreasing slots, Min over
// non-increasing ones), which rules out the ABA problem: a register's value
// never returns to a previously CASed-away value, so a successful CAS
// implies the register was unchanged since the matching read, exactly the
// LL/SC guarantee.
//
// That guarantee is also why a refresh may stop at its first successful
// CAS: the installed value was computed from children read after this
// update reached them, so the node already reflects it. Only a failed first
// CAS needs Jayanti's second attempt, and after two failures some other
// process's successful CAS installed children read after the first attempt
// began, which again covers this update. Uncontended, an update costs
// 2+4*depth steps; the worst case stays 2+8*depth.
//
// The paper's Section 3 remark — constant-read counters and snapshots with
// logarithmic updates exist from CAS — is this package; Theorems 1-2 prove
// its update cost is optimal for any constant-read implementation.
package farray

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/b1tree"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// Aggregate identifies the function an FArray maintains over its slots.
type Aggregate int

const (
	// Sum maintains slot_0 + ... + slot_{n-1}. Slots must be updated
	// non-decreasingly (the counter use case).
	Sum Aggregate = iota + 1

	// Max maintains max(slot_0, ..., slot_{n-1}). Slots must be updated
	// non-decreasingly (the max-register use case).
	Max

	// Min maintains min(slot_0, ..., slot_{n-1}). Slots must be updated
	// non-INCREASINGLY (e.g. low-watermark tracking); use NewWithInitial
	// to start slots high.
	Min
)

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

func (a Aggregate) combine(x, y int64) int64 {
	switch a {
	case Sum:
		return x + y
	case Min:
		if y < x {
			return y
		}
		return x
	default: // Max
		if y > x {
			return y
		}
		return x
	}
}

// allows reports whether the aggregate's monotonicity direction permits
// replacing cur with next.
func (a Aggregate) allows(cur, next int64) bool {
	if a == Min {
		return next <= cur
	}
	return next >= cur
}

// MonotonicityError reports an Update against the aggregate's monotone
// direction (decreasing a Sum/Max slot, increasing a Min slot), which the
// CAS-based refresh cannot support (see the package comment on ABA).
type MonotonicityError struct {
	Slot     int
	Current  int64
	Proposed int64
}

// Error implements error.
func (e *MonotonicityError) Error() string {
	return fmt.Sprintf("farray: slot %d update %d -> %d violates the aggregate's monotone direction",
		e.Slot, e.Current, e.Proposed)
}

// FArray is a fixed-fan-in aggregate tree. Construct it with New.
type FArray struct {
	n      int
	agg    Aggregate
	tree   *b1tree.Tree
	values []*primitive.Register // one per tree node
}

// New builds an f-array with n >= 1 single-writer slots (slot i belongs to
// process i) maintaining the given aggregate, with all slots initially 0.
func New(pool *primitive.Pool, n int, agg Aggregate) (*FArray, error) {
	return NewWithInitial(pool, n, agg, 0)
}

// NewWithInitial builds an f-array whose slots all start at initial —
// typically a high value for Min aggregates.
func NewWithInitial(pool *primitive.Pool, n int, agg Aggregate, initial int64) (*FArray, error) {
	if n < 1 {
		return nil, fmt.Errorf("farray: need n >= 1 slots, got %d", n)
	}
	if agg != Sum && agg != Max && agg != Min {
		return nil, fmt.Errorf("farray: unknown aggregate %v", agg)
	}
	tree, err := b1tree.NewComplete(n)
	if err != nil {
		return nil, fmt.Errorf("farray: %w", err)
	}
	f := &FArray{n: n, agg: agg, tree: tree}
	f.values = make([]*primitive.Register, len(tree.Nodes))
	for k, node := range tree.Nodes {
		init := initial
		if !node.IsLeaf() && agg == Sum {
			// Internal sums start at initial * leaves-below; keep the
			// simple (and overwhelmingly common) initial == 0 exact and
			// reject anything else for Sum.
			if initial != 0 {
				return nil, fmt.Errorf("farray: Sum supports only a zero initial value")
			}
			init = 0
		}
		if node.Parent == tree.Root {
			// Every update ends by reading both of the root's children
			// and CASing the root, so the three share one cache line:
			// one line transfer per update instead of three. Preorder
			// allocated the root first.
			f.values[k] = pool.NewNear(f.values[tree.Root.Index], "farray.node", init)
			continue
		}
		f.values[k] = pool.New("farray.node", init)
	}
	return f, nil
}

// Slots returns the number of slots.
func (f *FArray) Slots() int { return f.n }

// AggregateKind returns the maintained aggregate.
func (f *FArray) AggregateKind() Aggregate { return f.agg }

// Read returns the aggregate over all slots in exactly one step.
//
//tradeoffvet:bound steps<=1 reads<=1
func (f *FArray) Read(ctx primitive.Context) int64 {
	return ctx.Read(f.values[f.tree.Root.Index])
}

// ReadSlot returns the current value of slot i in one step.
//
//tradeoffvet:bound steps<=1 reads<=1
func (f *FArray) ReadSlot(ctx primitive.Context, i int) (int64, error) {
	if i < 0 || i >= f.n {
		return 0, fmt.Errorf("farray: slot %d out of range [0,%d)", i, f.n)
	}
	return ctx.Read(f.values[f.tree.Leaves[i].Index]), nil
}

// Update sets the calling process's slot (slot ctx.ID()) to v and refreshes
// the aggregates on the slot's root path. It takes O(log n) steps: one leaf
// read, one leaf write, and per level 4 steps uncontended, 8 at worst.
//
// v must respect the aggregate's monotone direction (>= the slot's current
// value for Sum/Max, <= for Min); Update is single-writer, so the owning
// process always knows the current value and well-behaved callers never
// trip the MonotonicityError.
//
//tradeoffvet:bound steps<=8logn+2 reads<=6logn+1 writes<=1 cas<=2logn
//tradeoffvet:bound steps<=4logn+2 uncontended
func (f *FArray) Update(ctx primitive.Context, v int64) error {
	i := ctx.ID()
	if i < 0 || i >= f.n {
		return fmt.Errorf("farray: process id %d out of range [0,%d)", i, f.n)
	}
	leaf := f.tree.Leaves[i]
	cell := f.values[leaf.Index]

	cur := ctx.Read(cell)
	if !f.agg.allows(cur, v) {
		return &MonotonicityError{Slot: i, Current: cur, Proposed: v}
	}
	if v != cur {
		ctx.Write(cell, v)
	}
	f.refreshPath(ctx, leaf)
	return nil
}

// Add increases the calling process's slot by delta >= 0 and returns the
// slot's new value. O(log n) steps. Sum and Max aggregates only.
//
//tradeoffvet:bound steps<=8logn+2 reads<=6logn+1 writes<=1 cas<=2logn
//tradeoffvet:bound steps<=4logn+2 uncontended
func (f *FArray) Add(ctx primitive.Context, delta int64) (int64, error) {
	if delta < 0 {
		return 0, fmt.Errorf("farray: negative delta %d", delta)
	}
	if f.agg == Min {
		return 0, fmt.Errorf("farray: Add is not defined for Min aggregates")
	}
	i := ctx.ID()
	if i < 0 || i >= f.n {
		return 0, fmt.Errorf("farray: process id %d out of range [0,%d)", i, f.n)
	}
	leaf := f.tree.Leaves[i]
	cell := f.values[leaf.Index]

	// Single-writer slot: the read-then-write is not a lost-update race.
	next := ctx.Read(cell) + delta
	ctx.Write(cell, next)
	f.refreshPath(ctx, leaf)
	return next, nil
}

// refreshPath refreshes every ancestor of leaf, retrying a level once if
// its first CAS fails.
func (f *FArray) refreshPath(ctx primitive.Context, leaf *b1tree.Node) {
	//tradeoffvet:loopbound logn leaf-to-root walk: one iteration per tree level
	for node := leaf.Parent; node != nil; node = node.Parent {
		cell := f.values[node.Index]
		left := f.values[node.Left.Index]
		right := f.values[node.Right.Index]
		for attempt := 0; attempt < 2; attempt++ {
			old := ctx.Read(cell)
			fresh := f.agg.combine(ctx.Read(left), ctx.Read(right))
			if ctx.CAS(cell, old, fresh) {
				break
			}
		}
	}
}

// Depth returns the tree height (update cost is 2 + 4*Depth steps
// uncontended, 2 + 8*Depth at worst).
func (f *FArray) Depth() int { return f.tree.LeafDepth(0) }
