package sim

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// buildTwoWritersRecycled is buildTwoWriters through the worker's recycler:
// registers from the reset pool, the system from recycled scaffolding.
func buildTwoWritersRecycled(steps int) Build {
	return func(rec *Recycler) (*System, error) {
		pool := rec.Pool()
		a := pool.New("a", 0)
		b := pool.New("b", 0)
		s := rec.NewSystem()
		for id, reg := range []*primitive.Register{a, b} {
			reg := reg
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					ctx.Write(reg, int64(i))
				}
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// ignoreRecycler adapts an Explore-style builder: correct, just reuse-free.
func ignoreRecycler(build func() (*System, error)) Build {
	return func(*Recycler) (*System, error) { return build() }
}

func TestExploreParallelCountsInterleavings(t *testing.T) {
	// Two independent 3-step processes: C(6,3) = 20 schedules, regardless
	// of worker count and regardless of whether the build recycles.
	builds := map[string]Build{
		"recycled": buildTwoWritersRecycled(3),
		"plain":    ignoreRecycler(buildTwoWriters(3)),
	}
	for name, build := range builds {
		for _, workers := range []int{1, 2, 4, 8} {
			var checked atomic64
			execs, err := ExploreParallel(build, func(s *System) error {
				checked.inc()
				if len(s.Events()) != 6 {
					return errors.New("incomplete execution passed to check")
				}
				return nil
			}, Options{Workers: workers, Budget: 100})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if execs != 20 || checked.load() != 20 {
				t.Fatalf("%s workers=%d: execs=%d checked=%d, want 20", name, workers, execs, checked.load())
			}
		}
	}
}

// atomic64 is a tiny test-local counter safe for concurrent check calls.
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// collectSchedules runs an exploration and returns the multiset of complete
// schedules it visited, sorted lexicographically for comparison.
func sortSchedules(schedules [][]int) {
	sort.Slice(schedules, func(i, j int) bool {
		a, b := schedules[i], schedules[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

func TestExploreParallelMatchesSequentialScheduleSet(t *testing.T) {
	// The determinism cross-check of the engine: sequential Explore and
	// ExploreParallel must visit the identical execution multiset — same
	// count, same schedules — for every worker count.
	steps := 3
	if testing.Short() {
		steps = 2
	}

	var seq [][]int
	seqExecs, err := Explore(buildTwoWriters(steps), func(s *System) error {
		seq = append(seq, append([]int(nil), s.Schedule()...))
		return nil
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sortSchedules(seq)

	for _, workers := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		var par [][]int
		parExecs, err := ExploreParallel(buildTwoWritersRecycled(steps), func(s *System) error {
			cp := append([]int(nil), s.Schedule()...)
			mu.Lock()
			par = append(par, cp)
			mu.Unlock()
			return nil
		}, Options{Workers: workers, Budget: 1_000_000})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parExecs != seqExecs {
			t.Fatalf("workers=%d: %d executions, sequential visited %d", workers, parExecs, seqExecs)
		}
		sortSchedules(par)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d schedules, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if len(par[i]) != len(seq[i]) {
				t.Fatalf("workers=%d: schedule %d is %v, want %v", workers, i, par[i], seq[i])
			}
			for k := range seq[i] {
				if par[i][k] != seq[i][k] {
					t.Fatalf("workers=%d: schedule %d is %v, want %v", workers, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestExploreParallelBudget(t *testing.T) {
	_, err := ExploreParallel(buildTwoWritersRecycled(4), func(*System) error { return nil },
		Options{Workers: 4, Budget: 10})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget overrun not reported as *BudgetError: %v", err)
	}
	if be.Budget != 10 {
		t.Fatalf("BudgetError.Budget = %d, want 10", be.Budget)
	}
	// The witness is a complete execution of the two 4-step writers.
	if len(be.Prefix) != 8 {
		t.Fatalf("BudgetError.Prefix = %v, want a complete 8-event schedule", be.Prefix)
	}
}

func TestExploreParallelBudgetErrorShutdown(t *testing.T) {
	// A budget overrun mid-exploration must (a) surface as the typed
	// *BudgetError whose Prefix is a real, replayable complete schedule,
	// (b) keep the count == checks invariant despite workers racing toward
	// the cap, and (c) shut every worker and simulated-process goroutine
	// down — no leaks for the race detector to chase.
	before := runtime.NumGoroutine()

	var checked atomic64
	execs, err := ExploreParallel(buildTwoWritersRecycled(4), func(*System) error {
		checked.inc()
		return nil
	}, Options{Workers: 8, Budget: 10})

	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget overrun not reported as *BudgetError: %v", err)
	}
	if be.Budget != 10 {
		t.Fatalf("BudgetError.Budget = %d, want 10", be.Budget)
	}
	if int64(execs) != checked.load() {
		t.Fatalf("count %d != %d check calls — over-budget executions must be neither counted nor checked",
			execs, checked.load())
	}
	if execs > 10 {
		t.Fatalf("count %d exceeds the budget of 10", execs)
	}

	// The witness prefix must replay to a complete execution on a fresh
	// system — a valid offending schedule, not a torn snapshot.
	s, err := buildTwoWriters(4)()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.Run(be.Prefix); err != nil {
		t.Fatalf("BudgetError.Prefix %v does not replay: %v", be.Prefix, err)
	}
	if len(s.Active()) != 0 || len(s.Events()) != 8 {
		t.Fatalf("BudgetError.Prefix %v replayed to %d events with active %v, want a complete 8-event execution",
			be.Prefix, len(s.Events()), s.Active())
	}

	// Worker pool and simulated processes must all have exited. A worker
	// goroutine exits just after signalling it is done, so poll briefly
	// before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after budget shutdown: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExploreBudgetErrorReportsPrefix(t *testing.T) {
	// The sequential reference must carry the same typed witness.
	_, err := Explore(buildTwoWriters(4), func(*System) error { return nil }, 10)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget overrun not reported as *BudgetError: %v", err)
	}
	if be.Budget != 10 || len(be.Prefix) != 8 {
		t.Fatalf("BudgetError = %+v, want budget 10 and a complete 8-event schedule", be)
	}
}

func TestExploreParallelPropagatesCheckError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := ExploreParallel(buildTwoWritersRecycled(1), func(*System) error { return sentinel },
		Options{Workers: 4, Budget: 100})
	if !errors.Is(err, sentinel) {
		t.Fatalf("check error lost: %v", err)
	}
}

func TestExploreParallelPropagatesBuildError(t *testing.T) {
	sentinel := errors.New("cannot build")
	_, err := ExploreParallel(func(*Recycler) (*System, error) { return nil, sentinel },
		func(*System) error { return nil }, Options{Workers: 4, Budget: 10})
	if !errors.Is(err, sentinel) {
		t.Fatalf("build error lost: %v", err)
	}
}

func TestRecyclerReusesRegistersAndScaffolding(t *testing.T) {
	rec := NewRecycler()

	build := buildTwoWritersRecycled(2)
	s1, err := build(rec)
	if err != nil {
		t.Fatal(err)
	}
	regs1 := rec.pool.Registers()
	rec.Release(s1)

	s2, err := build(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Release(s2)
	regs2 := rec.pool.Registers()

	if len(regs1) != 2 || len(regs2) != 2 {
		t.Fatalf("pool sizes %d, %d, want 2 each", len(regs1), len(regs2))
	}
	for i := range regs1 {
		if regs1[i] != regs2[i] {
			t.Fatalf("register %d reallocated instead of reused", i)
		}
		if regs2[i].ID() != i {
			t.Fatalf("register %d has id %d after reuse", i, regs2[i].ID())
		}
	}

	// The recycled system must behave exactly like a fresh one.
	if err := s2.Run([]int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if len(s2.Events()) != 4 || len(s2.Active()) != 0 {
		t.Fatalf("recycled system misbehaved: %d events, active %v", len(s2.Events()), s2.Active())
	}
}

func TestPoolResetReissuesIdenticalRegisters(t *testing.T) {
	pool := primitive.NewPool()
	a := pool.New("a", 7)
	b := pool.New("b", 9)
	if a.ID() != 0 || b.ID() != 1 || pool.Len() != 2 {
		t.Fatalf("fresh pool ids %d,%d len %d", a.ID(), b.ID(), pool.Len())
	}
	a.Store(100) // dirty the register across the cycle boundary

	pool.Reset()
	if pool.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", pool.Len())
	}
	a2 := pool.New("a2", 3)
	if a2 != a {
		t.Fatal("Reset pool allocated fresh storage instead of reusing")
	}
	if a2.ID() != 0 || a2.Name() != "a2" || a2.Load() != 3 {
		t.Fatalf("reissued register id=%d name=%q val=%d, want 0/a2/3", a2.ID(), a2.Name(), a2.Load())
	}
	// Growth past the previous cycle's size still works.
	c := pool.New("c", 0)
	d := pool.New("d", 0)
	if c != b || d == a || d == b {
		t.Fatal("reuse-then-grow sequence broken")
	}
	if d.ID() != 2 || pool.Len() != 3 {
		t.Fatalf("grown pool id=%d len=%d, want 2/3", d.ID(), pool.Len())
	}
}

// TestReducedExploreAllocationsPerBuild bounds what one rebuild of a
// reduced ExploreParallel costs in allocations, so that interior nodes stay
// allocation-free: the footprints, the awake processes and the
// continuation's sleep set live in worker buffers, and only a child pushed
// onto the deque gets storage of its own. The configuration is two
// processes each CAS-incrementing one register twice, built from the
// worker's recycler with programs made once, so the builder itself
// allocates only the System; the bound absorbs the call's fixed cost (the
// worker, its recycler and the coroutines) spread over its builds.
func TestReducedExploreAllocationsPerBuild(t *testing.T) {
	var (
		shared *primitive.Register
		builds int
	)
	increment := func(ctx primitive.Context) {
		for i := 0; i < 2; i++ {
			for {
				v := ctx.Read(shared)
				if ctx.CAS(shared, v, v+1) {
					break
				}
			}
		}
	}
	build := func(rec *Recycler) (*System, error) {
		builds++
		shared = rec.Pool().New("shared", 0)
		s := rec.NewSystem()
		for id := 0; id < 2; id++ {
			if err := s.Spawn(id, increment); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	explore := func() {
		if _, err := ExploreParallel(build, func(*System) error { return nil }, Options{Workers: 1, Budget: 1000, Reduce: true}); err != nil {
			t.Fatal(err)
		}
	}
	explore()
	perCall := float64(builds)
	builds = 0
	perBuild := testing.AllocsPerRun(10, explore) / perCall
	t.Logf("%.0f builds per exploration, %.2f allocations per build", perCall, perBuild)
	if perBuild > 3 {
		t.Fatalf("a reduced rebuild allocates %.2f times, want at most 3", perBuild)
	}
}
