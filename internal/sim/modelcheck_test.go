package sim_test

import (
	"math/rand"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
)

// These tests model-check the implementations: programs run under the
// deterministic simulator, the scheduler explores many interleavings
// (random sampling plus exhaustive enumeration for small configurations),
// and every resulting history must pass the exact linearizability checker.
// Unlike the -race stress tests, a failure here comes with the exact
// schedule that produced it.

// buildFn constructs programs plus the recorder capturing their history.
type buildFn func(pool *primitive.Pool) ([]sim.Program, *history.Recorder)

// runSchedule builds a fresh system and drives it with choose until all
// processes finish; returns the recorded history.
func runSchedule(t *testing.T, build buildFn, choose func(active []int) int) []history.Op {
	t.Helper()
	pool := primitive.NewPool()
	programs, rec := build(pool)
	s := sim.NewSystem()
	defer s.Shutdown()
	for id, p := range programs {
		if err := s.Spawn(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for {
		active := s.Active()
		if len(active) == 0 {
			return rec.Ops()
		}
		if _, err := s.Step(choose(active)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRandomSchedules samples seeded random schedules and verifies every
// history against spec.
func checkRandomSchedules(t *testing.T, build buildFn, spec history.Spec, trials int) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		ops := runSchedule(t, build, func(active []int) int {
			return active[rng.Intn(len(active))]
		})
		if err := history.CheckLinearizable(ops, spec); err != nil {
			t.Fatalf("trial %d: %v\nhistory: %+v", trial, err, ops)
		}
	}
}

// checkExhaustive enumerates EVERY schedule of the given programs via
// sim.Explore and verifies every resulting history against spec. budget
// caps the number of complete executions to keep mistakes from hanging the
// suite.
func checkExhaustive(t *testing.T, build buildFn, spec history.Spec, budget int) int {
	t.Helper()
	execs, err := exploreExhaustive(build, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	return execs
}

// exploreExhaustive is checkExhaustive returning the first failure instead
// of failing the test, for tests that expect a planted bug to be caught.
func exploreExhaustive(build buildFn, spec history.Spec, budget int) (int, error) {
	return exploreWith(sim.Explore, build, spec, budget)
}

// exploreWith is exploreExhaustive through a given sequential engine.
func exploreWith(explore func(func() (*sim.System, error), func(*sim.System) error, int) (int, error), build buildFn, spec history.Spec, budget int) (int, error) {
	var rec *history.Recorder
	buildSystem := func() (*sim.System, error) {
		pool := primitive.NewPool()
		programs, r := build(pool)
		rec = r
		s := sim.NewSystem()
		for id, p := range programs {
			if err := s.Spawn(id, p); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	return explore(buildSystem, func(*sim.System) error {
		return history.CheckLinearizable(rec.Ops(), spec)
	}, budget)
}

// --- builders ---

func maxRegProgram(m maxreg.MaxRegister, rec *history.Recorder, ops []history.Op) sim.Program {
	return func(ctx primitive.Context) {
		for _, op := range ops {
			switch op.Kind {
			case history.KindWriteMax:
				inv := rec.Invoke()
				if err := m.WriteMax(ctx, op.Arg); err != nil {
					panic(err) // deterministic test setup bug
				}
				rec.Record(history.Op{Proc: ctx.ID(), Kind: op.Kind, Arg: op.Arg}, inv)
			case history.KindReadMax:
				inv := rec.Invoke()
				got := m.ReadMax(ctx)
				rec.Record(history.Op{Proc: ctx.ID(), Kind: op.Kind, Ret: got}, inv)
			}
		}
	}
}

func buildMaxRegWorkload(newReg func(pool *primitive.Pool) maxreg.MaxRegister, seed int64) buildFn {
	return func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		m := newReg(pool)
		rng := rand.New(rand.NewSource(seed))
		programs := make([]sim.Program, 3)
		for p := range programs {
			script := make([]history.Op, 3)
			for i := range script {
				if rng.Intn(2) == 0 {
					script[i] = history.Op{Kind: history.KindWriteMax, Arg: rng.Int63n(6)}
				} else {
					script[i] = history.Op{Kind: history.KindReadMax}
				}
			}
			programs[p] = maxRegProgram(m, rec, script)
		}
		return programs, rec
	}
}

func TestRandomSchedulesAlgorithmA(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := buildMaxRegWorkload(func(pool *primitive.Pool) maxreg.MaxRegister {
			m, err := core.New(pool, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, seed)
		checkRandomSchedules(t, build, history.MaxRegisterSpec{}, 60)
	}
}

func TestRandomSchedulesAACMaxReg(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := buildMaxRegWorkload(func(pool *primitive.Pool) maxreg.MaxRegister {
			m, err := maxreg.NewAAC(pool, 8)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, seed)
		checkRandomSchedules(t, build, history.MaxRegisterSpec{}, 60)
	}
}

func TestRandomSchedulesUnboundedAAC(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := buildMaxRegWorkload(func(pool *primitive.Pool) maxreg.MaxRegister {
			return maxreg.NewUnboundedAAC(pool)
		}, seed)
		checkRandomSchedules(t, build, history.MaxRegisterSpec{}, 60)
	}
}

func TestExhaustiveUnboundedAAC(t *testing.T) {
	// Every interleaving of two writes and a double read over the lazy
	// unbounded register (small values keep descents short enough to
	// exhaust).
	build := func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		m := maxreg.NewUnboundedAAC(pool)
		return []sim.Program{
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 3}}),
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 1}}),
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindReadMax}, {Kind: history.KindReadMax}}),
		}, rec
	}
	execs := checkExhaustive(t, build, history.MaxRegisterSpec{}, 2_000_000)
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}

func counterProgram(c counter.Counter, rec *history.Recorder, script []history.Kind) sim.Program {
	return func(ctx primitive.Context) {
		for _, kind := range script {
			switch kind {
			case history.KindIncrement:
				inv := rec.Invoke()
				if err := c.Increment(ctx); err != nil {
					panic(err)
				}
				rec.Record(history.Op{Proc: ctx.ID(), Kind: kind}, inv)
			case history.KindCounterRead:
				inv := rec.Invoke()
				got := c.Read(ctx)
				rec.Record(history.Op{Proc: ctx.ID(), Kind: kind, Ret: got}, inv)
			}
		}
	}
}

func buildCounterWorkload(newCtr func(pool *primitive.Pool) counter.Counter, seed int64) buildFn {
	return func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		c := newCtr(pool)
		rng := rand.New(rand.NewSource(seed))
		programs := make([]sim.Program, 3)
		for p := range programs {
			script := make([]history.Kind, 3)
			for i := range script {
				if rng.Intn(2) == 0 {
					script[i] = history.KindIncrement
				} else {
					script[i] = history.KindCounterRead
				}
			}
			programs[p] = counterProgram(c, rec, script)
		}
		return programs, rec
	}
}

func TestRandomSchedulesFArrayCounter(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := buildCounterWorkload(func(pool *primitive.Pool) counter.Counter {
			c, err := counter.NewFArray(pool, 3)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, seed)
		checkRandomSchedules(t, build, history.CounterSpec{}, 60)
	}
}

func TestRandomSchedulesAACCounter(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		build := buildCounterWorkload(func(pool *primitive.Pool) counter.Counter {
			c, err := counter.NewAAC(pool, 3, 64)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, seed)
		checkRandomSchedules(t, build, history.CounterSpec{}, 60)
	}
}

func TestExhaustiveAACMaxReg(t *testing.T) {
	// Every interleaving of WriteMax(3), WriteMax(1), and a double ReadMax
	// over the 4-bounded AAC register.
	build := func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		m, err := maxreg.NewAAC(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		return []sim.Program{
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 3}}),
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 1}}),
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindReadMax}, {Kind: history.KindReadMax}}),
		}, rec
	}
	execs := checkExhaustive(t, build, history.MaxRegisterSpec{}, 100000)
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}

func TestExhaustiveCASCounter(t *testing.T) {
	// Every interleaving of two CAS increments and two reads.
	execs := checkExhaustive(t, buildExhaustiveCASCounter, history.CounterSpec{}, 100000)
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}

func TestExhaustiveAlgorithmATinyConfig(t *testing.T) {
	// Algorithm A with bound 2 collapses to a 3-node tree; a write is 10
	// steps. Exhaust one writer against a two-read reader.
	build := func(pool *primitive.Pool) ([]sim.Program, *history.Recorder) {
		rec := history.NewRecorder()
		m, err := core.New(pool, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return []sim.Program{
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindWriteMax, Arg: 1}}),
			maxRegProgram(m, rec, []history.Op{{Kind: history.KindReadMax}, {Kind: history.KindReadMax}}),
		}, rec
	}
	execs := checkExhaustive(t, build, history.MaxRegisterSpec{}, 100000)
	t.Logf("explored %d complete executions", execs)
	if execs < 10 {
		t.Fatalf("exploration degenerate: only %d executions", execs)
	}
}
