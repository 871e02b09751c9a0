package counter

import (
	"errors"
	"math/bits"
	"sync"
	"testing"
	"testing/quick"

	"github.com/restricteduse/tradeoffs/internal/b1tree"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// mustCAS unwraps NewCAS in tests that construct with known-valid limits.
func mustCAS(c *CAS, err error) *CAS {
	if err != nil {
		panic(err)
	}
	return c
}

// implementations builds every counter in the package (including the
// Corollary 1 reductions over each snapshot type) for n processes with the
// given restricted-use limit where one is required.
func implementations(t *testing.T, n int, limit int64) map[string]Counter {
	t.Helper()
	aac, err := NewAAC(primitive.NewPool(), n, limit)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := NewFArray(primitive.NewPool(), n)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := snapshot.NewDoubleCollect(primitive.NewPool(), n)
	if err != nil {
		t.Fatal(err)
	}
	af, err := snapshot.NewAfek(primitive.NewPool(), n, limit+1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := snapshot.NewFArray(primitive.NewPool(), n, limit+1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Counter{
		"aac":          aac,
		"farray":       fa,
		"cas":          mustCAS(NewCAS(primitive.NewPool(), 0)),
		"snap/collect": NewFromSnapshot(dc),
		"snap/afek":    NewFromSnapshot(af),
		"snap/farray":  NewFromSnapshot(fs),
	}
}

func TestSequentialExactness(t *testing.T) {
	const n, limit = 4, 4096
	for name, c := range implementations(t, n, limit) {
		t.Run(name, func(t *testing.T) {
			ctxs := make([]primitive.Context, n)
			for i := range ctxs {
				ctxs[i] = primitive.NewDirect(i)
			}
			if got := c.Read(ctxs[0]); got != 0 {
				t.Fatalf("initial Read = %d", got)
			}
			var model int64
			for i := 0; i < 1000; i++ {
				id := i % n
				if err := c.Increment(ctxs[id]); err != nil {
					t.Fatalf("increment %d: %v", i, err)
				}
				model++
				if i%5 == 0 {
					if got := c.Read(ctxs[(id+1)%n]); got != model {
						t.Fatalf("after %d increments: Read = %d", model, got)
					}
				}
			}
		})
	}
}

func TestIDValidation(t *testing.T) {
	for name, c := range implementations(t, 2, 64) {
		if name == "cas" {
			continue // the CAS counter is id-agnostic by design
		}
		t.Run(name, func(t *testing.T) {
			if err := c.Increment(primitive.NewDirect(5)); err == nil {
				t.Fatal("out-of-range id accepted")
			}
			if err := c.Increment(primitive.NewDirect(-1)); err == nil {
				t.Fatal("negative id accepted")
			}
		})
	}
}

func TestAACLimitEnforced(t *testing.T) {
	// Per-process counts share one global limit; driving one process past
	// it must fail with LimitError.
	c, err := NewAAC(primitive.NewPool(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.NewDirect(0)
	for i := 0; i < 5; i++ {
		if err := c.Increment(ctx); err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
	}
	var limitErr *LimitError
	if err := c.Increment(ctx); !errors.As(err, &limitErr) {
		t.Fatalf("over-limit increment err = %v", err)
	}
	if limitErr.Limit != 5 || limitErr.Error() == "" {
		t.Fatalf("LimitError = %+v", limitErr)
	}
	if got := c.Read(ctx); got != 5 {
		t.Fatalf("Read after rejection = %d", got)
	}
	if c.Limit() != 5 {
		t.Fatalf("Limit = %d", c.Limit())
	}
}

func TestAACTotalLimitAcrossProcesses(t *testing.T) {
	// The max registers bound the TOTAL count: pushing the global sum past
	// the limit from different processes must also fail.
	c, err := NewAAC(primitive.NewPool(), 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for i := 0; i < 8; i++ {
		if err := c.Increment(primitive.NewDirect(i % 4)); err != nil {
			var limitErr *LimitError
			if !errors.As(err, &limitErr) {
				t.Fatalf("unexpected error: %v", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("8 increments against limit 6 all succeeded")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewAAC(primitive.NewPool(), 0, 10); err == nil {
		t.Fatal("NewAAC(0 procs) succeeded")
	}
	if _, err := NewAAC(primitive.NewPool(), 2, 0); err == nil {
		t.Fatal("NewAAC(limit 0) succeeded")
	}
	if _, err := NewFArray(primitive.NewPool(), 0); err == nil {
		t.Fatal("NewFArray(0) succeeded")
	}
	if _, err := NewCAS(primitive.NewPool(), -1); err == nil {
		t.Fatal("NewCAS(limit -1) succeeded")
	}
	if _, err := NewCAS(primitive.NewPool(), 0); err != nil {
		t.Fatalf("NewCAS(limit 0): %v", err)
	}
}

func TestAddExactness(t *testing.T) {
	// Batched deltas must land exactly, interleaved with single increments
	// and reads, on every implementation.
	const n, limit = 4, 1 << 14
	for name, c := range implementations(t, n, limit) {
		t.Run(name, func(t *testing.T) {
			ctxs := make([]primitive.Context, n)
			for i := range ctxs {
				ctxs[i] = primitive.NewDirect(i)
			}
			var model int64
			for i := 0; i < 400; i++ {
				id := i % n
				switch i % 3 {
				case 0:
					if err := c.Increment(ctxs[id]); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					model++
				case 1:
					delta := int64(i%7) * 3 // includes delta == 0 no-ops
					if err := c.Add(ctxs[id], delta); err != nil {
						t.Fatalf("op %d: Add(%d): %v", i, delta, err)
					}
					model += delta
				default:
					if got := c.Read(ctxs[(id+1)%n]); got != model {
						t.Fatalf("op %d: Read = %d, want %d", i, got, model)
					}
				}
			}
			if got := c.Read(ctxs[0]); got != model {
				t.Fatalf("final Read = %d, want %d", got, model)
			}
		})
	}
}

func TestAddRejectsNegativeDelta(t *testing.T) {
	for name, c := range implementations(t, 2, 64) {
		t.Run(name, func(t *testing.T) {
			ctx := primitive.NewDirect(0)
			var negErr *NegativeDeltaError
			if err := c.Add(ctx, -3); !errors.As(err, &negErr) {
				t.Fatalf("Add(-3) err = %v, want NegativeDeltaError", err)
			}
			if negErr.Delta != -3 || negErr.Error() == "" {
				t.Fatalf("NegativeDeltaError = %+v", negErr)
			}
			if got := c.Read(ctx); got != 0 {
				t.Fatalf("rejected Add perturbed the count: %d", got)
			}
		})
	}
}

func TestAddConsumesLimit(t *testing.T) {
	// A delta must consume delta units of the restricted-use budget, and an
	// over-budget delta must be rejected without partial effect.
	builds := map[string]func() (Counter, error){
		"aac": func() (Counter, error) { return NewAAC(primitive.NewPool(), 2, 10) },
		"cas": func() (Counter, error) { return NewCAS(primitive.NewPool(), 10) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			c, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ctx := primitive.NewDirect(0)
			if err := c.Add(ctx, 7); err != nil {
				t.Fatalf("Add(7): %v", err)
			}
			var limitErr *LimitError
			if err := c.Add(ctx, 4); !errors.As(err, &limitErr) {
				t.Fatalf("Add(4) past limit err = %v, want LimitError", err)
			}
			if got := c.Read(ctx); got != 7 {
				t.Fatalf("rejected Add partially applied: Read = %d, want 7", got)
			}
			if err := c.Add(ctx, 3); err != nil {
				t.Fatalf("Add(3) filling the budget exactly: %v", err)
			}
			if got := c.Read(ctx); got != 10 {
				t.Fatalf("final Read = %d, want 10", got)
			}
		})
	}
}

func TestAddSingleUpdateCost(t *testing.T) {
	// The amortization claim: Add(delta) costs one propagation, the same as
	// a single Increment, independent of delta.
	for _, n := range []int{2, 8, 32} {
		impls := implementations(t, n, 1<<12)
		for _, name := range []string{"farray", "aac", "cas", "snap/farray"} {
			c := impls[name]
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			var err error
			one := ctx.Measure(func() { err = c.Increment(ctx) })
			if err != nil {
				t.Fatal(err)
			}
			batched := ctx.Measure(func() { err = c.Add(ctx, 64) })
			if err != nil {
				t.Fatal(err)
			}
			// The batched update may pay a handful of extra steps (e.g. AAC
			// max-register writes scale with log of the stored value) but
			// must stay within a small constant of one increment — never
			// 64x.
			if batched > 2*one+8 {
				t.Fatalf("n=%d %s: Add(64) = %d steps vs Increment = %d", n, name, batched, one)
			}
		}
	}
}

func TestSingleProcess(t *testing.T) {
	for name, c := range implementations(t, 1, 100) {
		t.Run(name, func(t *testing.T) {
			ctx := primitive.NewDirect(0)
			for i := 0; i < 10; i++ {
				if err := c.Increment(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.Read(ctx); got != 10 {
				t.Fatalf("Read = %d", got)
			}
		})
	}
}

func TestReadStepComplexity(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		impls := implementations(t, n, 1<<12)
		steps := func(c Counter) int64 {
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			return ctx.Measure(func() { c.Read(ctx) })
		}
		// Constant-read implementations: exactly 1 step.
		if got := steps(impls["farray"]); got != 1 {
			t.Fatalf("n=%d: farray Read = %d steps", n, got)
		}
		if got := steps(impls["cas"]); got != 1 {
			t.Fatalf("n=%d: cas Read = %d steps", n, got)
		}
		if got := steps(impls["snap/farray"]); got != 1 {
			t.Fatalf("n=%d: snap/farray Read = %d steps", n, got)
		}
		// AAC read = one root ReadMax = ceil(log2(limit+1)) steps, N-free.
		logM := int64(bits.Len64(uint64(1 << 12)))
		if got := steps(impls["aac"]); got > logM {
			t.Fatalf("n=%d: aac Read = %d steps > %d", n, got, logM)
		}
		// Snapshot-reduction reads cost one Scan: 2N for the collects.
		if got := steps(impls["snap/collect"]); got != int64(2*n) {
			t.Fatalf("n=%d: snap/collect Read = %d steps, want %d", n, got, 2*n)
		}
	}
}

func TestIncrementStepComplexity(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		impls := implementations(t, n, 1<<12)
		depth := int64(bits.Len(uint(n - 1)))
		logM := int64(bits.Len64(uint64(1 << 12)))

		steps := func(c Counter) int64 {
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			var err error
			got := ctx.Measure(func() { err = c.Increment(ctx) })
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		// AAC: 2 leaf steps + per level two child readings (each <= logM)
		// and one WriteMax (<= logM).
		if got, budget := steps(impls["aac"]), 2+depth*3*logM; got > budget {
			t.Fatalf("n=%d: aac Increment = %d steps > %d", n, got, budget)
		}
		// f-array: 2 leaf steps + at most 8 per level.
		if got, budget := steps(impls["farray"]), 2+8*depth; got > budget {
			t.Fatalf("n=%d: farray Increment = %d steps > %d", n, got, budget)
		}
		// CAS uncontended: read + CAS.
		if got := steps(impls["cas"]); got != 2 {
			t.Fatalf("n=%d: cas Increment = %d steps, want 2", n, got)
		}
		// Corollary 1: increment = exactly one Update.
		if got := steps(impls["snap/collect"]); got != 2 {
			t.Fatalf("n=%d: snap/collect Increment = %d steps, want 2", n, got)
		}
		if got, budget := steps(impls["snap/farray"]), 1+8*depth; got > budget {
			t.Fatalf("n=%d: snap/farray Increment = %d steps > %d", n, got, budget)
		}
	}
}

// TestFArraySoloIncrementCostExact pins the uncontended cost of the
// f-array counter: solo, the first CAS at every level succeeds, so
// Increment and Add take one leaf read, one leaf write and 4 steps per
// level, from every leaf.
func TestFArraySoloIncrementCostExact(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 64} {
		c, err := NewFArray(primitive.NewPool(), n)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := b1tree.NewComplete(n)
		if err != nil {
			t.Fatal(err)
		}
		for id, leaf := range tree.Leaves {
			want := int64(2 + 4*leaf.Depth)
			ctx := primitive.NewCounting(primitive.NewDirect(id))
			if got := ctx.Measure(func() { err = c.Increment(ctx) }); err != nil || got != want {
				t.Fatalf("n=%d id=%d: Increment took %d steps (err %v), want %d", n, id, got, err, want)
			}
			if got := ctx.Measure(func() { err = c.Add(ctx, 3) }); err != nil || got != want {
				t.Fatalf("n=%d id=%d: Add took %d steps (err %v), want %d", n, id, got, err, want)
			}
		}
	}
}

func TestAACReadIsNFree(t *testing.T) {
	// The defining read-optimality property: AAC's read cost depends on the
	// increment limit, not on N.
	limit := int64(1 << 10)
	stepsAt := func(n int) int64 {
		c, err := NewAAC(primitive.NewPool(), n, limit)
		if err != nil {
			t.Fatal(err)
		}
		ctx := primitive.NewCounting(primitive.NewDirect(0))
		return ctx.Measure(func() { c.Read(ctx) })
	}
	if a, b := stepsAt(2), stepsAt(256); a != b {
		t.Fatalf("AAC read costs %d steps at N=2 but %d at N=256", a, b)
	}
}

func TestConcurrentExactTotal(t *testing.T) {
	const (
		n    = 8
		perG = 1000
	)
	for name, c := range implementations(t, n, n*perG+1) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					ctx := primitive.NewDirect(id)
					for i := 0; i < perG; i++ {
						if err := c.Increment(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got := c.Read(primitive.NewDirect(0)); got != n*perG {
				t.Fatalf("final Read = %d, want %d", got, n*perG)
			}
		})
	}
}

func TestConcurrentMonotoneBoundedReads(t *testing.T) {
	const (
		writers = 4
		perG    = 800
	)
	for name, c := range implementations(t, writers+1, writers*perG+1) {
		t.Run(name, func(t *testing.T) {
			var writerWG sync.WaitGroup
			for id := 0; id < writers; id++ {
				writerWG.Add(1)
				go func(id int) {
					defer writerWG.Done()
					ctx := primitive.NewDirect(id)
					for i := 0; i < perG; i++ {
						if err := c.Increment(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}(id)
			}

			stop := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				ctx := primitive.NewDirect(writers)
				var prev int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					got := c.Read(ctx)
					if got < prev {
						t.Errorf("count regressed %d -> %d", prev, got)
						return
					}
					if got > writers*perG {
						t.Errorf("count overshot: %d", got)
						return
					}
					prev = got
				}
			}()
			writerWG.Wait()
			close(stop)
			<-readerDone
		})
	}
}

func TestQuickExactness(t *testing.T) {
	f := func(ops []bool) bool {
		c, err := NewFArray(primitive.NewPool(), 3)
		if err != nil {
			return false
		}
		var model int64
		for k, inc := range ops {
			ctx := primitive.NewDirect(k % 3)
			if inc {
				if err := c.Increment(ctx); err != nil {
					return false
				}
				model++
			} else if c.Read(ctx) != model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
