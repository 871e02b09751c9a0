package sim

import (
	"errors"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// buildSharedWriters makes two processes that each perform `steps` writes
// to ONE shared register with process-distinct values: every pair of steps
// conflicts, so DPOR must not prune anything.
func buildSharedWriters(steps int) func() (*System, error) {
	return func() (*System, error) {
		pool := primitive.NewPool()
		shared := pool.New("shared", 0)
		s := NewSystem()
		for id := 0; id < 2; id++ {
			id := id
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					ctx.Write(shared, int64(id*100+i))
				}
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// buildCASIncrementers makes `procs` processes that each CAS-increment one
// shared register `steps` times with read-then-CAS retry loops — the
// contended workload whose branching depends on CAS outcomes.
func buildCASIncrementers(procs, steps int) func() (*System, error) {
	return func() (*System, error) {
		pool := primitive.NewPool()
		shared := pool.New("shared", 0)
		s := NewSystem()
		for id := 0; id < procs; id++ {
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					for {
						v := ctx.Read(shared)
						if ctx.CAS(shared, v, v+1) {
							break
						}
					}
				}
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// buildMixedReaders makes two processes that each write their own register
// then read a shared one: writes are independent across processes, reads
// are independent of each other — partial reduction.
func buildMixedReaders(steps int) func() (*System, error) {
	return func() (*System, error) {
		pool := primitive.NewPool()
		shared := pool.New("shared", 7)
		own := pool.NewSlice("own", 2, 0)
		s := NewSystem()
		for id := 0; id < 2; id++ {
			reg := own[id]
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					ctx.Write(reg, int64(i))
				}
				ctx.Read(shared)
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

func TestExploreReducedCollapsesIndependentWriters(t *testing.T) {
	// Two independent 3-step writers: 20 interleavings, ONE trace class.
	full, err := Explore(buildTwoWriters(3), func(*System) error { return nil }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	reduced, err := ExploreReduced(buildTwoWriters(3), func(s *System) error {
		checked++
		if len(s.Events()) != 6 {
			return errors.New("incomplete execution passed to check")
		}
		return nil
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full != 20 {
		t.Fatalf("full exploration visited %d executions, want 20", full)
	}
	if reduced != 1 || checked != 1 {
		t.Fatalf("reduced=%d checked=%d, want 1 (fully independent programs collapse to one representative)", reduced, checked)
	}
}

func TestExploreReducedPreservesFullyDependentTree(t *testing.T) {
	// Every step writes the one shared register: no two steps commute, so
	// the reduced tree must equal the full tree.
	full, err := Explore(buildSharedWriters(3), func(*System) error { return nil }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := ExploreReduced(buildSharedWriters(3), func(*System) error { return nil }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full != 20 || reduced != full {
		t.Fatalf("full=%d reduced=%d, want both 20 (nothing commutes)", full, reduced)
	}
}

func TestCrossCheckReductionCoversAllClasses(t *testing.T) {
	// The mechanical soundness check over configurations spanning the
	// independence spectrum: fully independent, fully conflicting,
	// CAS-retry branching, and mixed read/write sharing.
	configs := []struct {
		name      string
		build     func() (*System, error)
		minFactor float64
	}{
		{"independent-writers", buildTwoWriters(3), 5},
		{"shared-writers", buildSharedWriters(3), 1},
		{"cas-increment", buildCASIncrementers(2, 2), 1},
		{"mixed-readers", buildMixedReaders(2), 5},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			stats, err := CrossCheckReduction(cfg.build, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ReducedExecs > stats.FullExecs {
				t.Fatalf("reduced visited MORE executions than full: %+v", stats)
			}
			if stats.Factor < cfg.minFactor {
				t.Fatalf("reduction factor %.2fx below the %gx this configuration guarantees (%+v)",
					stats.Factor, cfg.minFactor, stats)
			}
			t.Logf("%s: %v", cfg.name, stats)
		})
	}
}

func TestExploreParallelReducedMatchesSequentialReduced(t *testing.T) {
	// The reduced engines must agree exactly — same count, same schedule
	// multiset — for every worker count, like the unreduced pair.
	builds := []struct {
		name string
		seq  func() (*System, error)
		par  Build
	}{
		{"independent", buildTwoWriters(3), buildTwoWritersRecycled(3)},
		{"shared", buildSharedWriters(2), ignoreRecycler(buildSharedWriters(2))},
		{"cas", buildCASIncrementers(2, 2), ignoreRecycler(buildCASIncrementers(2, 2))},
		{"mixed", buildMixedReaders(2), ignoreRecycler(buildMixedReaders(2))},
	}
	for _, b := range builds {
		var seq [][]int
		seqExecs, err := ExploreReduced(b.seq, func(s *System) error {
			seq = append(seq, append([]int(nil), s.Schedule()...))
			return nil
		}, 1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		sortSchedules(seq)

		for _, workers := range []int{1, 2, 4} {
			var mu sync.Mutex
			var par [][]int
			parExecs, err := ExploreParallel(b.par, func(s *System) error {
				cp := append([]int(nil), s.Schedule()...)
				mu.Lock()
				par = append(par, cp)
				mu.Unlock()
				return nil
			}, Options{Workers: workers, Budget: 1_000_000, Reduce: true})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", b.name, workers, err)
			}
			if parExecs != seqExecs {
				t.Fatalf("%s workers=%d: parallel reduced visited %d executions, sequential reduced %d",
					b.name, workers, parExecs, seqExecs)
			}
			sortSchedules(par)
			if len(par) != len(seq) {
				t.Fatalf("%s workers=%d: %d schedules, want %d", b.name, workers, len(par), len(seq))
			}
			for i := range seq {
				if len(par[i]) != len(seq[i]) {
					t.Fatalf("%s workers=%d: schedule %d is %v, want %v", b.name, workers, i, par[i], seq[i])
				}
				for k := range seq[i] {
					if par[i][k] != seq[i][k] {
						t.Fatalf("%s workers=%d: schedule %d is %v, want %v", b.name, workers, i, par[i], seq[i])
					}
				}
			}
		}
	}
}

func TestTraceHashInvariantUnderIndependentSwaps(t *testing.T) {
	// Two independent writers: [0 1 0 1] and [1 0 1 0] are the same trace;
	// hashes must match. Two shared writers: the same two schedules order
	// conflicting writes differently; hashes must differ.
	run := func(build func() (*System, error), schedule []int) []Event {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		if err := s.Run(schedule); err != nil {
			t.Fatal(err)
		}
		if len(s.Active()) != 0 {
			t.Fatalf("schedule %v did not complete the execution", schedule)
		}
		return append([]Event(nil), s.Events()...)
	}

	indep := buildTwoWriters(2)
	h1 := TraceHash(run(indep, []int{0, 1, 0, 1}))
	h2 := TraceHash(run(indep, []int{1, 0, 1, 0}))
	if h1 != h2 {
		t.Fatalf("independent-writer schedules hashed differently: %#x vs %#x", h1, h2)
	}

	shared := buildSharedWriters(2)
	g1 := TraceHash(run(shared, []int{0, 1, 0, 1}))
	g2 := TraceHash(run(shared, []int{1, 0, 1, 0}))
	if g1 == g2 {
		t.Fatalf("conflicting-writer schedules hashed identically: %#x", g1)
	}
}

func TestFailedCASCommutesWithReadInTraceHash(t *testing.T) {
	// proc 0 reads the register; proc 1 attempts a CAS that always fails
	// (expected value never present). The failed CAS writes nothing, so
	// both orders are one trace class, and one execution represents it.
	build := func() (*System, error) {
		pool := primitive.NewPool()
		r := pool.New("r", 5)
		s := NewSystem()
		if err := s.Spawn(0, func(ctx primitive.Context) { ctx.Read(r) }); err != nil {
			return nil, err
		}
		if err := s.Spawn(1, func(ctx primitive.Context) { ctx.CAS(r, 99, 100) }); err != nil {
			return nil, err
		}
		return s, nil
	}
	run := func(schedule []int) []Event {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		if err := s.Run(schedule); err != nil {
			t.Fatal(err)
		}
		return append([]Event(nil), s.Events()...)
	}
	h1 := TraceHash(run([]int{0, 1}))
	h2 := TraceHash(run([]int{1, 0}))
	if h1 != h2 {
		t.Fatalf("read and failed CAS did not commute in the trace hash: %#x vs %#x", h1, h2)
	}
	// Exploration judges the pending CAS against current memory: it will
	// fail, so it is a read too, and the reduced run visits one order only.
	stats, err := CrossCheckReduction(build, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullExecs != 2 || stats.ReducedExecs != 1 || stats.Classes != 1 {
		t.Fatalf("%v, want full=2 reduced=1 classes=1", stats)
	}
}

// TestSleepingCASWokenByWrite pins the soundness argument for judging a
// pending CAS by current memory. Process 0's CAS fails where the branch
// begins, so it counts as a read and sleeps through process 1's first,
// independent write. Process 1's second write makes the CAS succeed; that
// write is on the CAS's register, hence dependent, and wakes it. Both
// outcomes must be visited, each once.
func TestSleepingCASWokenByWrite(t *testing.T) {
	build := func() (*System, error) {
		pool := primitive.NewPool()
		r := pool.New("r", 0)
		q := pool.New("q", 0)
		s := NewSystem()
		if err := s.Spawn(0, func(ctx primitive.Context) { ctx.CAS(r, 1, 2) }); err != nil {
			return nil, err
		}
		if err := s.Spawn(1, func(ctx primitive.Context) {
			ctx.Write(q, 1)
			ctx.Write(r, 1)
		}); err != nil {
			return nil, err
		}
		return s, nil
	}
	var outcomes []bool
	execs, err := ExploreReduced(build, func(s *System) error {
		for _, ev := range s.Events() {
			if ev.Kind == OpCAS {
				outcomes = append(outcomes, ev.CASOK)
			}
		}
		return nil
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if execs != 2 || len(outcomes) != 2 || outcomes[0] == outcomes[1] {
		t.Fatalf("reduced run visited %d executions with CAS outcomes %v, want one failed and one successful", execs, outcomes)
	}
	stats, err := CrossCheckReduction(build, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullExecs != 3 || stats.Classes != 2 {
		t.Fatalf("%v, want full=3 classes=2", stats)
	}
}

func TestExploreReducedBudget(t *testing.T) {
	// Fully dependent tree (no pruning) with a sub-tree-size budget: the
	// typed error must surface with a complete witness schedule, and the
	// count must equal the number of checked executions.
	checked := 0
	execs, err := ExploreReduced(buildSharedWriters(3), func(*System) error {
		checked++
		return nil
	}, 10)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget overrun not reported as *BudgetError: %v", err)
	}
	if be.Budget != 10 || len(be.Prefix) != 6 {
		t.Fatalf("BudgetError = %+v, want budget 10 and a complete 6-event schedule", be)
	}
	if execs != 10 || checked != 10 {
		t.Fatalf("execs=%d checked=%d, want exactly the 10 in-budget executions", execs, checked)
	}
}
