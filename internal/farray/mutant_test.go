package farray_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/farray"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
)

// adder is the update half of an f-array counter: the real FArray or the
// SingleRefresh mutant.
type adder func(f *farray.FArray, ctx primitive.Context)

func realAdd(f *farray.FArray, ctx primitive.Context) {
	if _, err := f.Add(ctx, 1); err != nil {
		panic(err)
	}
}

func mutantAdd(f *farray.FArray, ctx primitive.Context) { farray.SingleRefresh{FArray: f}.Add(ctx, 1) }

// exploreCounter model-checks two increments racing two reads at n=2
// under reduced parallel exploration and returns the first
// non-linearizable history's error. Every process invokes its first
// operation before any step runs, so only the second read can start after
// both increments finished and notice one lost.
func exploreCounter(t *testing.T, add adder) (int, error) {
	t.Helper()
	var recorders sync.Map // *sim.System -> *history.Recorder
	build := func(r *sim.Recycler) (*sim.System, error) {
		f, err := farray.New(r.Pool(), 2, farray.Sum)
		if err != nil {
			return nil, err
		}
		rec := history.NewRecorder()
		inc := func(ctx primitive.Context) {
			inv := rec.Invoke()
			add(f, ctx)
			rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindIncrement}, inv)
		}
		read := func(ctx primitive.Context) {
			for i := 0; i < 2; i++ {
				inv := rec.Invoke()
				got := f.Read(ctx)
				rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindCounterRead, Ret: got}, inv)
			}
		}
		s := r.NewSystem()
		for id, p := range []sim.Program{inc, inc, read} {
			if err := s.Spawn(id, p); err != nil {
				return nil, err
			}
		}
		recorders.Store(s, rec)
		return s, nil
	}
	return sim.ExploreParallel(build, func(s *sim.System) error {
		rec, ok := recorders.LoadAndDelete(s)
		if !ok {
			return fmt.Errorf("no recorder bound to system %p", s)
		}
		return history.CheckLinearizable(rec.(*history.Recorder).Ops(), history.CounterSpec{})
	}, sim.Options{Workers: 2, Budget: 100000, Reduce: true})
}

// TestExplorerCatchesSingleRefresh plants the bug the second refresh
// attempt exists for: the explorer must find a lost increment in the
// mutant, and none in the real f-array.
func TestExplorerCatchesSingleRefresh(t *testing.T) {
	if execs, err := exploreCounter(t, realAdd); err != nil {
		t.Fatalf("real f-array: %v (after %d executions)", err, execs)
	}
	_, err := exploreCounter(t, mutantAdd)
	var budget *sim.BudgetError
	if err == nil || errors.As(err, &budget) {
		t.Fatalf("explorer missed the single-refresh mutant's lost increment: err %v", err)
	}
	t.Logf("mutant caught: %v", err)
}

// TestSecondAttemptRepairsStaleCAS replays the schedule the explorer finds:
// p1 computes the sum from a stale leaf 0, its CAS on the root wins, and
// p0's CAS fails. The mutant gives up and loses p0's increment; the real
// refresh retries and repairs the root.
func TestSecondAttemptRepairsStaleCAS(t *testing.T) {
	// p1: read leaf1, write leaf1=1, read root(0), read leaf0(0).
	// p0: read leaf0, write leaf0=1, read root(0), read leaf0(1), read leaf1(1).
	// p1: read leaf1(1), CAS root 0->1 succeeds: p1 is done.
	// p0: CAS root 0->2 fails.
	schedule := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0}
	for _, tc := range []struct {
		name      string
		add       adder
		remaining int   // p0's steps after the failed CAS
		want      int64 // the root once both increments completed
	}{
		{"single refresh", mutantAdd, 0, 1},
		{"real", realAdd, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := farray.New(primitive.NewPool(), 2, farray.Sum)
			if err != nil {
				t.Fatal(err)
			}
			s := sim.NewSystem()
			defer s.Shutdown()
			for id := 0; id < 2; id++ {
				if err := s.Spawn(id, func(ctx primitive.Context) { tc.add(f, ctx) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Run(schedule); err != nil {
				t.Fatal(err)
			}
			if !s.Done(1) {
				t.Fatal("p1 should have finished after its successful CAS")
			}
			remaining := 0
			for ; !s.Done(0); remaining++ {
				if _, err := s.Step(0); err != nil {
					t.Fatal(err)
				}
			}
			if remaining != tc.remaining {
				t.Errorf("p0 took %d steps after its failed CAS, want %d", remaining, tc.remaining)
			}
			if got := f.Read(primitive.NewDirect(2)); got != tc.want {
				t.Fatalf("root = %d after both increments completed, want %d", got, tc.want)
			}
		})
	}
}
