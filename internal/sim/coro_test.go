package sim

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// writeForever writes r until its system shuts it down.
func writeForever(r *primitive.Register) Program {
	return func(ctx primitive.Context) {
		for i := int64(0); i < 1<<40; i++ {
			ctx.Write(r, i)
		}
	}
}

// waitForGoroutines polls until at most n goroutines remain: a goroutine
// that has signalled its completion may still be exiting.
func waitForGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStepDoesNotAllocateOnWarmRecycledSystem(t *testing.T) {
	rec := NewRecycler()
	defer rec.Close()
	build := func() *System {
		s := rec.NewSystem()
		if err := s.Spawn(0, writeForever(rec.Pool().New("r", 0))); err != nil {
			t.Fatal(err)
		}
		return s
	}
	step := func(s *System) {
		if _, err := s.Step(0); err != nil {
			t.Fatal(err)
		}
	}

	// The first cycle grows the event log and schedule the second reuses.
	const steps = 100
	s := build()
	for i := 0; i < 2*steps; i++ {
		step(s)
	}
	rec.Release(s)

	s = build()
	defer rec.Release(s)
	if allocs := testing.AllocsPerRun(steps, func() { step(s) }); allocs != 0 {
		t.Fatalf("Step on a warm recycled system allocates %.1f times, want 0", allocs)
	}
}

func TestRecyclerKeepsOneCoroutinePerProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	rec := NewRecycler()
	build := buildTwoWritersRecycled(3)
	cycle := func() {
		s, err := build(rec)
		if err != nil {
			t.Fatal(err)
		}
		// Both programs are mid-flight, so Release must unwind them.
		if err := s.Run([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		rec.Release(s)
	}

	cycle()
	parked := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if n := runtime.NumGoroutine(); n > parked {
		t.Fatalf("%d goroutines after 1,001 build/Release cycles, %d after the first", n, parked)
	}
	if len(rec.started) != 2 {
		t.Fatalf("recycler started %d coroutines for 2 process ids", len(rec.started))
	}
	rec.Close()
	waitForGoroutines(t, min(before, parked-2))
}

func TestRecycledShellUnwindsProgramAndRunsNextLikeFresh(t *testing.T) {
	rec := NewRecycler()
	defer rec.Close()

	unwound := false
	s := rec.NewSystem()
	r := rec.Pool().New("r", 0)
	if err := s.Spawn(0, func(ctx primitive.Context) {
		defer func() { unwound = true }()
		writeForever(r)(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run([]int{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	shell := s.procs[0]
	rec.Release(s)
	if !unwound {
		t.Fatal("Release did not run the interrupted program's deferred calls")
	}

	// Two contending incrementers under a schedule with a failed CAS.
	schedule := []int{0, 1, 0, 1, 1, 1}
	run := func(s *System, pool *primitive.Pool) []Event {
		t.Helper()
		reg := pool.New("r", 0)
		for id := 0; id < 2; id++ {
			if err := s.Spawn(id, incProgram(reg, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(schedule); err != nil {
			t.Fatal(err)
		}
		if len(s.Active()) != 0 {
			t.Fatalf("schedule %v left processes %v active", schedule, s.Active())
		}
		events := append([]Event(nil), s.Events()...)
		for i := range events {
			events[i].Reg = nil // registers of different pools; RegID compares
		}
		return events
	}

	fresh := NewSystem()
	defer fresh.Shutdown()
	want := run(fresh, primitive.NewPool())

	recycled := rec.NewSystem()
	defer rec.Release(recycled)
	got := run(recycled, rec.Pool())
	if recycled.procs[0] != shell {
		t.Fatal("the released shell was not reused")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recycled shell's events differ from a fresh system's:\n got %+v\nwant %+v", got, want)
	}
}

func TestSpawnReportsPanic(t *testing.T) {
	boom := errors.New("boom")
	s := NewSystem()
	defer s.Shutdown()
	err := s.Spawn(4, func(primitive.Context) { panic(boom) })
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, boom) {
		t.Fatalf("Spawn of a panicking program returned %v, want a *PanicError wrapping the panic", err)
	}
	if pe.Proc != 4 || len(pe.Schedule) != 0 {
		t.Fatalf("PanicError = proc %d schedule %v, want proc 4 and no schedule", pe.Proc, pe.Schedule)
	}
	if !s.Done(4) {
		t.Fatal("a panicked process is not done")
	}
}

// errSawWrite is what process 1 of buildPanicky panics with.
var errSawWrite = errors.New("read process 0's write")

// buildPanicky makes process 0 write r and process 1 read it, panicking if
// it sees the write: of the two interleavings only [0 1] panics. A nil rec
// builds a plain system.
func buildPanicky(rec *Recycler) (*System, error) {
	pool, s := primitive.NewPool(), NewSystem()
	if rec != nil {
		pool, s = rec.Pool(), rec.NewSystem()
	}
	r := pool.New("r", 0)
	if err := s.Spawn(0, func(ctx primitive.Context) { ctx.Write(r, 1) }); err != nil {
		return nil, err
	}
	if err := s.Spawn(1, func(ctx primitive.Context) {
		if ctx.Read(r) == 1 {
			panic(errSawWrite)
		}
	}); err != nil {
		return nil, err
	}
	return s, nil
}

func TestExplorersReturnProgramPanicAsTypedError(t *testing.T) {
	before := runtime.NumGoroutine()
	plain := func() (*System, error) { return buildPanicky(nil) }
	noCheck := func(*System) error { return nil }
	engines := map[string]func() (int, error){
		"Explore":        func() (int, error) { return Explore(plain, noCheck, 100) },
		"ExploreReduced": func() (int, error) { return ExploreReduced(plain, noCheck, 100) },
		"ExploreParallel/w1": func() (int, error) {
			return ExploreParallel(buildPanicky, noCheck, Options{Workers: 1, Budget: 100})
		},
		"ExploreParallel/w2": func() (int, error) {
			return ExploreParallel(buildPanicky, noCheck, Options{Workers: 2, Budget: 100})
		},
		"ExploreParallel/w2/reduced": func() (int, error) {
			return ExploreParallel(buildPanicky, noCheck, Options{Workers: 2, Budget: 100, Reduce: true})
		},
	}
	for name, explore := range engines {
		_, err := explore()
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.Is(err, errSawWrite) {
			t.Fatalf("%s: %v, want a *PanicError wrapping the program's panic", name, err)
		}
		if pe.Proc != 1 || !slices.Equal(pe.Schedule, []int{0, 1}) {
			t.Fatalf("%s: process %d panicked after %v, want process 1 after [0 1]", name, pe.Proc, pe.Schedule)
		}

		// The schedule replays to the same panic on a fresh system.
		s, err := plain()
		if err != nil {
			t.Fatal(err)
		}
		err = s.Run(pe.Schedule)
		s.Shutdown()
		var again *PanicError
		if !errors.As(err, &again) || again.Proc != pe.Proc || again.Value != pe.Value ||
			!slices.Equal(again.Schedule, pe.Schedule) {
			t.Fatalf("%s: replaying %v gave %v, want %v", name, pe.Schedule, err, pe)
		}
	}
	waitForGoroutines(t, before)
}
