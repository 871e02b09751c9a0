package snapshot

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/b1tree"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

func TestFArrayUpdateZeroAlloc(t *testing.T) {
	const n, runs = 5, 200
	fa, err := NewFArray(primitive.NewPool(), n, 2*runs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.Context(primitive.NewDirect(0))
	if err := fa.Update(ctx, 1); err != nil { // creates the arena's first chunk
		t.Fatal(err)
	}
	v := int64(1)
	avg := testing.AllocsPerRun(runs, func() {
		v++
		if err := fa.Update(ctx, v); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("FArray.Update allocates %v objects per call at n=%d, want 0", avg, n)
	}
}

func TestWordArenaViewsSpanChunks(t *testing.T) {
	// 7-word views over five chunks: four views run past a chunk's end
	// into its tail, and the directory grows through buckets 0, 1 and 2.
	const w = 7
	count := int64(5<<chunkBits) / w
	a := &words{limit: count * w}
	offs := make([]int64, count)
	for i := range offs {
		off, view, ok := a.reserve(w)
		if !ok || len(view) != w || cap(view) != w {
			t.Fatalf("reserve %d = len %d cap %d, %v", i, len(view), cap(view), ok)
		}
		for j := range view {
			view[j] = int64(i*w + j)
		}
		offs[i] = off
	}
	for i, off := range offs {
		view := a.view(off, w)
		if len(view) != w || cap(view) != w {
			t.Fatalf("view %d at offset %d: len %d cap %d", i, off, len(view), cap(view))
		}
		for j, x := range view {
			if x != int64(i*w+j) {
				t.Fatalf("view %d at offset %d = %v", i, off, view)
			}
		}
	}
}

// TestFArrayConcurrentScanViews runs updaters against scanners: each
// scanner's successive views must never lose a component's progress, and
// every view a scanner retained must still hold what it held when scanned.
func TestFArrayConcurrentScanViews(t *testing.T) {
	const (
		updaters = 3
		scanners = 2
		perG     = 2000
	)
	fa, err := NewFArray(primitive.NewPool(), updaters+scanners, updaters*perG)
	if err != nil {
		t.Fatal(err)
	}
	var (
		updating sync.WaitGroup
		scanning sync.WaitGroup
		done     = make(chan struct{})
		errs     = make(chan error, updaters+scanners)
	)
	for id := 0; id < updaters; id++ {
		updating.Add(1)
		go func(ctx primitive.Context) {
			defer updating.Done()
			for v := int64(1); v <= perG; v++ {
				if err := fa.Update(ctx, v); err != nil {
					errs <- err
					return
				}
			}
		}(primitive.NewDirect(id))
	}
	for id := updaters; id < updaters+scanners; id++ {
		scanning.Add(1)
		go func(ctx primitive.Context) {
			defer scanning.Done()
			var views, copies [][]int64
			prev := make([]int64, fa.Components())
			for stopped := false; !stopped; {
				select {
				case <-done:
					stopped = true
				default:
				}
				view := fa.ScanView(ctx)
				for i, x := range view {
					if x < prev[i] {
						errs <- fmt.Errorf("scanner %d: view %v after %v", ctx.ID(), view, prev)
						return
					}
				}
				copy(prev, view)
				views, copies = append(views, view), append(copies, slices.Clone(view))
			}
			for i := range views {
				if !slices.Equal(views[i], copies[i]) {
					errs <- fmt.Errorf("scanner %d: retained view %d changed from %v to %v", ctx.ID(), i, copies[i], views[i])
					return
				}
			}
		}(primitive.NewDirect(id))
	}
	updating.Wait()
	close(done)
	scanning.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFArrayScanViewAppendCopies(t *testing.T) {
	fa, ctxs := seedFArray(t, 5)
	view := fa.ScanView(ctxs[0])
	if cap(view) != len(view) {
		t.Fatalf("ScanView cap %d, len %d", cap(view), len(view))
	}
	// The next update reserves the words right after view; an append
	// that wrote in place would corrupt the view it publishes.
	if err := fa.Update(ctxs[1], 99); err != nil {
		t.Fatal(err)
	}
	_ = append(view, -1)
	want := []int64{10, 99, 12, 13, 14}
	if got := fa.Scan(ctxs[0]); !slices.Equal(got, want) {
		t.Fatalf("Scan after append = %v, want %v", got, want)
	}
}

// TestUpdateLimitAnyLeaves checks the restricted-use contract: maxUpdates
// updates succeed whichever segments issue them, and the costliest issuer
// (the deepest leaf) exhausts the budget right after them.
func TestUpdateLimitAnyLeaves(t *testing.T) {
	const maxUpdates = 40
	for _, n := range []int{1, 2, 3, 5, 16} {
		tree, err := b1tree.NewComplete(n)
		if err != nil {
			t.Fatal(err)
		}
		deepest := 0
		for i, leaf := range tree.Leaves {
			if leaf.Depth > tree.Leaves[deepest].Depth {
				deepest = i
			}
		}
		for name, build := range map[string]func() (Snapshot, error){
			"farray": func() (Snapshot, error) { return NewFArray(primitive.NewPool(), n, maxUpdates) },
			"afek":   func() (Snapshot, error) { return NewAfek(primitive.NewPool(), n, maxUpdates) },
		} {
			for _, spread := range []bool{false, true} {
				s, err := build()
				if err != nil {
					t.Fatal(err)
				}
				id := func(i int) int {
					if spread {
						return i % n
					}
					return deepest
				}
				for i := 0; i < maxUpdates; i++ {
					if err := s.Update(primitive.NewDirect(id(i)), int64(i)); err != nil {
						t.Fatalf("%s n=%d spread=%v: update %d from %d: %v", name, n, spread, i, id(i), err)
					}
				}
				if spread || (name == "farray" && n == 1) {
					continue // cheaper issuers, or no views at all: budget left over
				}
				var capErr *CapacityError
				if err := s.Update(primitive.NewDirect(deepest), -1); !errors.As(err, &capErr) {
					t.Errorf("%s n=%d: update %d from leaf %d: err %v, want *CapacityError", name, n, maxUpdates+1, deepest, err)
				}
			}
		}
	}
}
