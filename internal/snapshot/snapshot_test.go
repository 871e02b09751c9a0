package snapshot

import (
	"errors"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

func implementations(t *testing.T, n int) map[string]Snapshot {
	t.Helper()
	dc, err := NewDoubleCollect(primitive.NewPool(), n)
	if err != nil {
		t.Fatal(err)
	}
	af, err := NewAfek(primitive.NewPool(), n, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := NewFArray(primitive.NewPool(), n, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Snapshot{"doublecollect": dc, "afek": af, "farray": fa}
}

func TestSequentialSemantics(t *testing.T) {
	const n = 4
	for name, s := range implementations(t, n) {
		t.Run(name, func(t *testing.T) {
			if s.Components() != n {
				t.Fatalf("Components = %d", s.Components())
			}
			got := s.Scan(primitive.NewDirect(0))
			for i, v := range got {
				if v != 0 {
					t.Fatalf("initial Scan[%d] = %d", i, v)
				}
			}

			model := make([]int64, n)
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < 2000; step++ {
				id := rng.Intn(n)
				v := rng.Int63n(1 << 20)
				if err := s.Update(primitive.NewDirect(id), v); err != nil {
					t.Fatalf("step %d: Update: %v", step, err)
				}
				model[id] = v
				if step%7 != 0 {
					continue
				}
				got := s.Scan(primitive.NewDirect(rng.Intn(n)))
				for i := range model {
					if got[i] != model[i] {
						t.Fatalf("step %d: Scan = %v, want %v", step, got, model)
					}
				}
			}
		})
	}
}

func TestSingleSegment(t *testing.T) {
	for name, s := range implementations(t, 1) {
		t.Run(name, func(t *testing.T) {
			ctx := primitive.NewDirect(0)
			if err := s.Update(ctx, 9); err != nil {
				t.Fatal(err)
			}
			if got := s.Scan(ctx); len(got) != 1 || got[0] != 9 {
				t.Fatalf("Scan = %v", got)
			}
		})
	}
}

func TestIDValidation(t *testing.T) {
	for name, s := range implementations(t, 2) {
		t.Run(name, func(t *testing.T) {
			if err := s.Update(primitive.NewDirect(2), 1); err == nil {
				t.Fatal("out-of-range id accepted")
			}
			if err := s.Update(primitive.NewDirect(-1), 1); err == nil {
				t.Fatal("negative id accepted")
			}
		})
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewDoubleCollect(primitive.NewPool(), 0); err == nil {
		t.Fatal("NewDoubleCollect(0) succeeded")
	}
	if _, err := NewAfek(primitive.NewPool(), 0, 10); err == nil {
		t.Fatal("NewAfek(0) succeeded")
	}
	if _, err := NewAfek(primitive.NewPool(), 2, -1); err == nil {
		t.Fatal("NewAfek negative budget succeeded")
	}
	if _, err := NewFArray(primitive.NewPool(), 0, 10); err == nil {
		t.Fatal("NewFArray(0) succeeded")
	}
	if _, err := NewFArray(primitive.NewPool(), 2, -1); err == nil {
		t.Fatal("NewFArray negative budget succeeded")
	}
}

func TestDoubleCollectValueRange(t *testing.T) {
	s, err := NewDoubleCollect(primitive.NewPool(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.NewDirect(0)
	var valErr *ValueError
	if err := s.Update(ctx, -1); !errors.As(err, &valErr) {
		t.Fatalf("Update(-1): %v", err)
	}
	if err := s.Update(ctx, 1<<31); !errors.As(err, &valErr) {
		t.Fatalf("Update(2^31): %v", err)
	}
	if err := s.Update(ctx, 1<<31-1); err != nil {
		t.Fatalf("Update(max): %v", err)
	}
	if got := s.Scan(ctx)[0]; got != 1<<31-1 {
		t.Fatalf("Scan[0] = %d", got)
	}
}

func TestAfekCapacityExhaustion(t *testing.T) {
	s, err := NewAfek(primitive.NewPool(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.NewDirect(0)
	for i := 0; i < 3; i++ {
		if err := s.Update(ctx, int64(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	var capErr *CapacityError
	if err := s.Update(ctx, 99); !errors.As(err, &capErr) {
		t.Fatalf("over-budget update err = %v", err)
	}
	if capErr.Error() == "" {
		t.Fatal("empty capacity error")
	}
	// State must still be readable and reflect the last good update.
	if got := s.Scan(ctx)[0]; got != 2 {
		t.Fatalf("Scan after exhaustion = %d, want 2", got)
	}
}

func TestFArrayCapacityExhaustion(t *testing.T) {
	s, err := NewFArray(primitive.NewPool(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.NewDirect(0)
	var capErr *CapacityError
	sawError := false
	for i := 0; i < 100; i++ {
		if err := s.Update(ctx, int64(i)); err != nil {
			if !errors.As(err, &capErr) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("restricted-use budget never enforced")
	}
}

func TestScanStepComplexity(t *testing.T) {
	// The E2/E5 headline: FArray scans in 1 step; DoubleCollect scans in
	// 2N steps uncontended; Afek in 2N (clean first double collect).
	for _, n := range []int{2, 8, 33} {
		impls := implementations(t, n)
		steps := func(s Snapshot) int64 {
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			return ctx.Measure(func() { s.Scan(ctx) })
		}
		if got := steps(impls["farray"]); got != 1 {
			t.Fatalf("n=%d: farray Scan = %d steps", n, got)
		}
		if got := steps(impls["doublecollect"]); got != int64(2*n) {
			t.Fatalf("n=%d: doublecollect Scan = %d steps, want %d", n, got, 2*n)
		}
		if got := steps(impls["afek"]); got != int64(2*n) {
			t.Fatalf("n=%d: afek Scan = %d steps, want %d", n, got, 2*n)
		}
	}
}

func TestUpdateStepComplexity(t *testing.T) {
	for _, n := range []int{2, 8, 33} {
		impls := implementations(t, n)
		steps := func(s Snapshot) int64 {
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			var err error
			got := ctx.Measure(func() { err = s.Update(ctx, 7) })
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		if got := steps(impls["doublecollect"]); got != 2 {
			t.Fatalf("n=%d: doublecollect Update = %d steps, want 2", n, got)
		}
		// FArray update: 1 leaf write + per level (1 read + 2 child reads + 1 CAS) * at most 2.
		depth := int64(bits.Len(uint(n - 1)))
		if got, budget := steps(impls["farray"]), 1+8*depth; got > budget {
			t.Fatalf("n=%d: farray Update = %d steps > %d", n, got, budget)
		}
		// Afek update embeds a scan: 2n + own read + write, uncontended.
		if got, budget := steps(impls["afek"]), int64(2*n+2); got > budget {
			t.Fatalf("n=%d: afek Update = %d steps > %d", n, got, budget)
		}
	}
}

// TestSoloUpdateCostExact pins the uncontended cost of the f-array
// snapshot: solo, the first CAS at every level succeeds, so an Update is
// one leaf write and 4 steps per level, from every leaf.
func TestSoloUpdateCostExact(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 64} {
		s, err := NewFArray(primitive.NewPool(), n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		for id, leaf := range s.tree.Leaves {
			want := int64(1 + 4*leaf.Depth)
			ctx := primitive.NewCounting(primitive.NewDirect(id))
			if got := ctx.Measure(func() { err = s.Update(ctx, 7) }); err != nil || got != want {
				t.Fatalf("n=%d id=%d: Update took %d steps (err %v), want %d", n, id, got, err, want)
			}
		}
	}
}

// TestConcurrentRegularity drives writers that publish strictly increasing
// values and checks every scan is component-wise sandwiched between the
// values known-written before the scan started and the values possibly
// in flight. With monotone per-segment values, component-wise monotonicity
// of a single scanner's scan sequence is also required.
func TestConcurrentRegularity(t *testing.T) {
	const (
		writers = 4
		perG    = 1500
	)
	for name, s := range implementations(t, writers+1) {
		t.Run(name, func(t *testing.T) {
			var writerWG sync.WaitGroup
			for id := 0; id < writers; id++ {
				writerWG.Add(1)
				go func(id int) {
					defer writerWG.Done()
					ctx := primitive.NewDirect(id)
					for i := 1; i <= perG; i++ {
						if err := s.Update(ctx, int64(i)); err != nil {
							t.Error(err)
							return
						}
					}
				}(id)
			}

			var (
				stop       = make(chan struct{})
				scannerEnd = make(chan struct{})
				scanErr    = make(chan error, 1)
			)
			go func() {
				defer close(scannerEnd)
				ctx := primitive.NewDirect(writers)
				prev := make([]int64, writers+1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					got := s.Scan(ctx)
					for i := range got {
						if got[i] < prev[i] {
							scanErr <- errors.New("segment regressed")
							return
						}
						if got[i] > perG {
							scanErr <- errors.New("segment overshot")
							return
						}
						prev[i] = got[i]
					}
				}
			}()

			writerWG.Wait()
			close(stop)
			<-scannerEnd

			select {
			case err := <-scanErr:
				t.Fatal(err)
			default:
			}
			if t.Failed() {
				return
			}

			final := s.Scan(primitive.NewDirect(writers))
			for i := 0; i < writers; i++ {
				if final[i] != perG {
					t.Fatalf("final Scan[%d] = %d, want %d", i, final[i], perG)
				}
			}
		})
	}
}

func TestScanReturnsFreshSlice(t *testing.T) {
	// Mutating a returned scan must not corrupt the object.
	for name, s := range implementations(t, 3) {
		t.Run(name, func(t *testing.T) {
			ctx := primitive.NewDirect(0)
			if err := s.Update(ctx, 5); err != nil {
				t.Fatal(err)
			}
			v := s.Scan(ctx)
			v[0] = 12345
			if got := s.Scan(ctx)[0]; got != 5 {
				t.Fatalf("aliasing: second Scan[0] = %d", got)
			}
		})
	}
}

func TestArenaExhaustionAndReuse(t *testing.T) {
	// A 5-word budget admits a 2-word and a 3-word view, then nothing.
	a := &words{limit: 5}
	o1, v1, ok := a.reserve(2)
	if !ok || o1 != 0 || len(v1) != 2 || cap(v1) != 2 {
		t.Fatalf("first reserve = %d, len %d cap %d, %v", o1, len(v1), cap(v1), ok)
	}
	o2, v2, ok := a.reserve(3)
	if !ok || o2 != 2 || len(v2) != 3 || cap(v2) != 3 {
		t.Fatalf("second reserve = %d, len %d cap %d, %v", o2, len(v2), cap(v2), ok)
	}
	if _, _, ok := a.reserve(1); ok {
		t.Fatal("reserve beyond the budget succeeded")
	}
	copy(v1, []int64{1, 2})
	copy(v2, []int64{3, 4, 5})
	if got := a.view(o1, 2); got[0] != 1 || got[1] != 2 {
		t.Fatalf("view(%d) = %v", o1, got)
	}
	if got := a.view(o2, 3); got[0] != 3 || got[2] != 5 {
		t.Fatalf("view(%d) = %v", o2, got)
	}
}
