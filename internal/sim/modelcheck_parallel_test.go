package sim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// Parallel counterparts of the exhaustive model-check tests: the same
// builders explored through sim.ExploreParallel across several worker
// counts, with the recorder for each in-flight system tracked through a
// sync.Map (workers hold distinct systems concurrently, so the sequential
// helper's single captured recorder variable would race).

// checkExhaustiveParallel enumerates every schedule of build's programs via
// ExploreParallel (one per trace class with opts.Reduce) and verifies each
// history against spec. Registers come from the worker's recycled pool and
// systems from its recycled scaffolding, so this also exercises the
// replay-reuse path under the exact linearizability oracle.
func checkExhaustiveParallel(t *testing.T, build buildFn, spec history.Spec, opts sim.Options) int {
	t.Helper()
	execs, err := exploreExhaustiveParallel(build, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return execs
}

// exploreExhaustiveParallel is checkExhaustiveParallel returning the first
// failure instead of failing the test.
func exploreExhaustiveParallel(build buildFn, spec history.Spec, opts sim.Options) (int, error) {
	var recorders sync.Map // *sim.System -> *history.Recorder
	buildSystem := func(rec *sim.Recycler) (*sim.System, error) {
		pool := rec.Pool()
		programs, r := build(pool)
		s := rec.NewSystem()
		for id, p := range programs {
			if err := s.Spawn(id, p); err != nil {
				return nil, err
			}
		}
		recorders.Store(s, r)
		return s, nil
	}
	return sim.ExploreParallel(buildSystem, func(s *sim.System) error {
		r, ok := recorders.LoadAndDelete(s)
		if !ok {
			return fmt.Errorf("no recorder bound to system %p", s)
		}
		return history.CheckLinearizable(r.(*history.Recorder).Ops(), spec)
	}, opts)
}

func buildExhaustiveAACMaxReg(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
	rec := history.NewRecorder()
	m, err := maxreg.NewAAC(pool, 4)
	if err != nil {
		panic(err)
	}
	return []sim.Program{
		maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 3}}),
		maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 1}}),
		maxRegProgram(m, rec, []history.Op{{Kind: history.KindReadMax}, {Kind: history.KindReadMax}}),
	}, rec
}

// buildCounterRace races two increments against two reads. Every process
// invokes its first operation before any step runs, so a lone read would
// overlap both increments and accept any count; only the second read can
// start after both finished and notice one lost.
func buildCounterRace(newCtr func(pool *primitive.Pool) counter.Counter) buildFn {
	return func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		c := newCtr(pool)
		return []sim.Program{
			counterProgram(c, rec, []history.Kind{history.KindIncrement}),
			counterProgram(c, rec, []history.Kind{history.KindIncrement}),
			counterProgram(c, rec, []history.Kind{history.KindCounterRead, history.KindCounterRead}),
		}, rec
	}
}

var buildExhaustiveCASCounter = buildCounterRace(func(pool *primitive.Pool) counter.Counter {
	c, err := counter.NewCAS(pool, 0)
	if err != nil {
		panic(err)
	}
	return c
})

// lostUpdateCounter is a deliberately broken CAS counter: its Increment
// reads and then writes, with no CAS, so two racing increments can both
// write 1.
type lostUpdateCounter struct{ r *primitive.Register }

func (c lostUpdateCounter) Increment(ctx primitive.Context) error { return c.Add(ctx, 1) }

func (c lostUpdateCounter) Add(ctx primitive.Context, delta int64) error {
	ctx.Write(c.r, ctx.Read(c.r)+delta)
	return nil
}

func (c lostUpdateCounter) Read(ctx primitive.Context) int64 { return ctx.Read(c.r) }

func (lostUpdateCounter) Limit() int64 { return 0 }

// TestExplorersCatchLostUpdate plants the bug the CAS counter's CAS exists
// for: the sequential engine and the parallel one, with and without
// reduction, must each find the lost increment.
func TestExplorersCatchLostUpdate(t *testing.T) {
	build := buildCounterRace(func(pool *primitive.Pool) counter.Counter {
		return lostUpdateCounter{r: pool.New("counter", 0)}
	})
	check := func(engine string, execs int, err error) {
		t.Helper()
		var budget *sim.BudgetError
		if err == nil || errors.As(err, &budget) {
			t.Fatalf("%s missed the lost update after %d executions: err %v", engine, execs, err)
		}
		t.Logf("%s caught it: %v", engine, err)
	}
	execs, err := exploreExhaustive(build, history.CounterSpec{}, 100000)
	check("Explore", execs, err)
	for _, opts := range []sim.Options{{Workers: 1}, {Workers: 4}, {Workers: 2, Reduce: true}} {
		opts.Budget = 100000
		execs, err := exploreExhaustiveParallel(build, history.CounterSpec{}, opts)
		check(fmt.Sprintf("ExploreParallel%+v", opts), execs, err)
	}
}

func TestExhaustiveParallelAACMaxReg(t *testing.T) {
	seq := checkExhaustive(t, buildExhaustiveAACMaxReg, history.MaxRegisterSpec{}, 100000)
	for _, workers := range []int{1, 4} {
		execs := checkExhaustiveParallel(t, buildExhaustiveAACMaxReg, history.MaxRegisterSpec{}, sim.Options{Workers: workers, Budget: 100000})
		if execs != seq {
			t.Fatalf("workers=%d explored %d executions, sequential explored %d", workers, execs, seq)
		}
	}
	t.Logf("explored %d complete executions per engine", seq)
}

func TestExhaustiveParallelCASCounter(t *testing.T) {
	seq := checkExhaustive(t, buildExhaustiveCASCounter, history.CounterSpec{}, 100000)
	for _, workers := range []int{1, 4} {
		execs := checkExhaustiveParallel(t, buildExhaustiveCASCounter, history.CounterSpec{}, sim.Options{Workers: workers, Budget: 100000})
		if execs != seq {
			t.Fatalf("workers=%d explored %d executions, sequential explored %d", workers, execs, seq)
		}
	}
	t.Logf("explored %d complete executions per engine", seq)
}

// TestExhaustiveReducedFArrayCounter explores every trace class of two
// f-array increments racing two reads at n=2: the refresh's early exit on
// a successful CAS must never lose an increment.
func TestExhaustiveReducedFArrayCounter(t *testing.T) {
	build := buildCounterRace(func(pool *primitive.Pool) counter.Counter {
		c, err := counter.NewFArray(pool, 2)
		if err != nil {
			panic(err)
		}
		return c
	})
	execs := checkExhaustiveParallel(t, build, history.CounterSpec{}, sim.Options{Workers: 2, Budget: 100000, Reduce: true})
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}

// TestExhaustiveReducedFArraySnapshot explores every trace class of two
// f-array snapshot updaters racing a scanner.
func TestExhaustiveReducedFArraySnapshot(t *testing.T) {
	build := func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		snap, err := snapshot.NewFArray(pool, 2, 4)
		if err != nil {
			panic(err)
		}
		update := func(ctx primitive.Context, v int64) {
			inv := rec.Invoke()
			if err := snap.Update(ctx, v); err != nil {
				panic(err)
			}
			rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindUpdate, Arg: v}, inv)
		}
		// p0 updates twice, so its second update's refresh can find a
		// node p1's update is refreshing at the same time.
		updater := func(ctx primitive.Context) {
			for v := int64(1); v <= int64(2-ctx.ID()); v++ {
				update(ctx, v)
			}
		}
		scanner := func(ctx primitive.Context) {
			for i := 0; i < 2; i++ {
				inv := rec.Invoke()
				view := snap.Scan(ctx)
				rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindScan, RetVec: view}, inv)
			}
		}
		return []sim.Program{updater, updater, scanner}, rec
	}
	execs := checkExhaustiveParallel(t, build, history.SnapshotSpec{N: 2}, sim.Options{Workers: 2, Budget: 1000000, Reduce: true})
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}

// TestCrashScenariosParallelSeeds runs the max-register crash workload's
// seeds concurrently — a smoke test that independent Systems on real
// goroutines do not interfere (each seed owns its pool, recorder, and
// system; failures are collected, not raised off the test goroutine).
func TestCrashScenariosParallelSeeds(t *testing.T) {
	const seeds = 12
	errs := make(chan error, seeds)
	var wg sync.WaitGroup
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- runCrashSeed(seed)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// runCrashSeed is one self-contained crash scenario: 6 writers on the AAC
// max register, two crashed mid-operation, survivors and a late reader
// checked for linearizability. It mirrors the "aac" case of
// TestCrashedWritersDoNotWedgeMaxRegisters but reports instead of
// t.Fatal-ing so it can run off the test goroutine.
func runCrashSeed(seed int64) error {
	pool := primitive.NewPool()
	m, err := maxreg.NewAAC(pool, 1<<10)
	if err != nil {
		return err
	}
	rec := history.NewRecorder()
	inflight := newInflightLog()
	crashed := map[int]int{0: 3, 1: 7}

	s := sim.NewSystem()
	defer s.Shutdown()
	for p := 0; p < 6; p++ {
		p := p
		if err := s.Spawn(p, func(ctx primitive.Context) {
			for i := 1; i <= 3; i++ {
				op := history.Op{Proc: p, Kind: history.KindWriteMax, Arg: int64(p*10 + i)}
				inv := inflight.begin(rec, op)
				if err := m.WriteMax(ctx, op.Arg); err != nil {
					panic(err)
				}
				inflight.commit(rec, op, inv)
			}
		}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var runnable []int
		for _, id := range s.Active() {
			if limit, isCrashed := crashed[id]; !isCrashed || s.StepsOf(id) < limit {
				runnable = append(runnable, id)
			}
		}
		if len(runnable) == 0 {
			break
		}
		if _, err := s.Step(runnable[rng.Intn(len(runnable))]); err != nil {
			return err
		}
	}
	inflight.flushCrashed(rec, crashed)

	var got int64
	if err := s.Spawn(10, func(ctx primitive.Context) {
		inv := rec.Invoke()
		got = m.ReadMax(ctx)
		rec.Record(history.Op{Proc: 10, Kind: history.KindReadMax, Ret: got}, inv)
	}); err != nil {
		return err
	}
	for !s.Done(10) {
		if _, err := s.Step(10); err != nil {
			return err
		}
	}
	if got < 53 {
		return fmt.Errorf("seed %d: read %d after p5 completed WriteMax(53)", seed, got)
	}
	if err := history.CheckMaxRegister(rec.Ops()); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// TestReducedExplorationMissesRealTimeOrder documents what trace
// equivalence does not preserve: the real-time order of operations.
// Process 0 writes y and then reads the counter x. Process 1's increment
// is planted to write z instead of x. Every step touches its own register,
// so all interleavings form one trace class and the reduced engines visit
// one execution, in which the increment overlaps the read and the history
// is linearizable. Only schedule [1 0 0], where the increment completes
// before the read begins, shows the bug, and only Explore visits it. Once
// operation boundaries count as dependent steps, the reduced run must
// catch it as well.
func TestReducedExplorationMissesRealTimeOrder(t *testing.T) {
	build := func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		x, y, z := pool.New("x", 0), pool.New("y", 0), pool.New("z", 0)
		return []sim.Program{
			func(ctx primitive.Context) {
				ctx.Write(y, 1)
				inv := rec.Invoke()
				rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindCounterRead, Ret: ctx.Read(x)}, inv)
			},
			func(ctx primitive.Context) {
				inv := rec.Invoke()
				ctx.Write(z, 1)
				rec.Record(history.Op{Proc: ctx.ID(), Kind: history.KindIncrement}, inv)
			},
		}, rec
	}
	execs, err := exploreExhaustive(build, history.CounterSpec{}, 100)
	if err == nil || !strings.Contains(err.Error(), "schedule [1 0 0]") {
		t.Fatalf("Explore did not report the violation at schedule [1 0 0] after %d executions: %v", execs, err)
	}
	execs, err = exploreWith(sim.ExploreReduced, build, history.CounterSpec{}, 100)
	if err != nil || execs != 1 {
		t.Fatalf("ExploreReduced: %d executions, err %v; want the one class visited once, without a report", execs, err)
	}
	execs, err = exploreExhaustiveParallel(build, history.CounterSpec{}, sim.Options{Workers: 2, Budget: 100, Reduce: true})
	if err != nil || execs != 1 {
		t.Fatalf("ExploreParallel reduced: %d executions, err %v; want the one class visited once, without a report", execs, err)
	}
}
