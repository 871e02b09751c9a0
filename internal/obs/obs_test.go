package obs

import (
	"strings"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

func TestInstrumentedCountsExactly(t *testing.T) {
	pool := primitive.NewPool()
	a := pool.New("a", 0)
	b := pool.New("b", 0)

	col := NewCollector(2, pool)
	ctx := col.Context(0)

	if got := ctx.ID(); got != 0 {
		t.Fatalf("ID = %d, want 0", got)
	}

	ctx.Write(a, 7)
	if v := ctx.Read(a); v != 7 {
		t.Fatalf("Read(a) = %d, want 7", v)
	}
	ctx.Read(b)
	if !ctx.CAS(a, 7, 8) {
		t.Fatal("CAS(a, 7, 8) failed")
	}
	if ctx.CAS(a, 7, 9) {
		t.Fatal("stale CAS succeeded")
	}

	if got := ctx.Steps(); got != 5 {
		t.Fatalf("Steps = %d, want 5", got)
	}

	st := col.Snapshot()
	if st.Reads != 2 || st.Writes != 1 || st.CASAttempts != 2 || st.CASFailures != 1 {
		t.Fatalf("Snapshot counters = %+v", st)
	}
	if len(st.Registers) != 2 {
		t.Fatalf("Registers = %+v, want 2 entries", st.Registers)
	}
	// a: 1 write + 1 read + 2 CAS attempts = 4; b: 1 read.
	if st.Registers[0].ID != a.ID() || st.Registers[0].Accesses != 4 {
		t.Fatalf("heatmap[a] = %+v, want 4 accesses", st.Registers[0])
	}
	if st.Registers[1].ID != b.ID() || st.Registers[1].Accesses != 1 {
		t.Fatalf("heatmap[b] = %+v, want 1 access", st.Registers[1])
	}
	if !strings.Contains(st.Registers[0].Name, "a") {
		t.Fatalf("heatmap[a].Name = %q, want the pool name", st.Registers[0].Name)
	}
	if st.HeatOverflow != 0 {
		t.Fatalf("HeatOverflow = %d, want 0", st.HeatOverflow)
	}
}

func TestLateRegistersLandInOverflow(t *testing.T) {
	pool := primitive.NewPool()
	early := pool.New("early", 0)

	col := NewCollector(1, pool)
	ctx := col.Context(0)

	late := pool.New("late", 0) // allocated after the collector sized its heatmap
	ctx.Read(early)
	ctx.Read(late)
	ctx.Write(late, 1)

	st := col.Snapshot()
	if st.HeatOverflow != 2 {
		t.Fatalf("HeatOverflow = %d, want 2", st.HeatOverflow)
	}
	if len(st.Registers) != 1 || st.Registers[0].Accesses != 1 {
		t.Fatalf("Registers = %+v, want only %q with 1 access", st.Registers, early.Name())
	}
}

// TestShardedMergeUnderRace spins one goroutine per process shard, all
// recording concurrently with scrapers, and checks the merged totals are
// exact. Run with -race to exercise the safety claim.
func TestShardedMergeUnderRace(t *testing.T) {
	const (
		procs   = 8
		perProc = 2000
	)
	pool := primitive.NewPool()
	regs := pool.NewSlice("r", 4, 0)
	col := NewCollector(procs, pool)
	op := col.Op("mixed")

	var scrapers, writers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					col.Snapshot()
				}
			}
		}()
	}

	for p := 0; p < procs; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			ctx := col.Context(p)
			for i := 0; i < perProc; i++ {
				sp := op.Begin(ctx)
				r := regs[i%len(regs)]
				ctx.Write(r, int64(i))
				ctx.Read(r)
				ctx.CAS(r, int64(i), int64(i+1))
				sp.End()
			}
		}(p)
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()

	st := col.Snapshot()
	total := int64(procs * perProc)
	if st.Writes != total || st.Reads != total || st.CASAttempts != total {
		t.Fatalf("merged counters = reads %d writes %d cas %d, want %d each",
			st.Reads, st.Writes, st.CASAttempts, total)
	}
	var heat int64
	for _, r := range st.Registers {
		heat += r.Accesses
	}
	if heat != 3*total {
		t.Fatalf("heatmap total = %d, want %d", heat, 3*total)
	}
	if len(st.Ops) != 1 || st.Ops[0].Name != "mixed" {
		t.Fatalf("Ops = %+v, want one op named mixed", st.Ops)
	}
	if st.Ops[0].Steps.Count != total {
		t.Fatalf("op count = %d, want %d", st.Ops[0].Steps.Count, total)
	}
	// Every span covered exactly 3 steps: bucket index of 3 is 2.
	if st.Ops[0].Steps.Buckets[2] != total {
		t.Fatalf("steps bucket[2] = %d, want %d", st.Ops[0].Steps.Buckets[2], total)
	}
	if st.Ops[0].LatencyNS.Count != total {
		t.Fatalf("latency count = %d, want %d", st.Ops[0].LatencyNS.Count, total)
	}
}

func TestOpSpanRecordsSteps(t *testing.T) {
	pool := primitive.NewPool()
	r := pool.New("r", 0)
	col := NewCollector(1, pool)
	// Freeze the clock so the latency histogram is deterministic too.
	col.clock = func() int64 { return 0 }

	ctx := col.Context(0)
	op := col.Op("probe")

	sp := op.Begin(ctx)
	ctx.Read(r)
	ctx.Read(r)
	sp.End()

	st := col.Snapshot()
	if len(st.Ops) != 1 {
		t.Fatalf("Ops = %+v", st.Ops)
	}
	probe := st.Ops[0]
	if probe.Steps.Count != 1 || probe.Steps.Sum != 2 {
		t.Fatalf("Steps = %+v, want one observation of 2", probe.Steps)
	}
	if probe.LatencyNS.Count != 1 || probe.LatencyNS.Sum != 0 {
		t.Fatalf("LatencyNS = %+v, want one zero observation", probe.LatencyNS)
	}
}

func TestOpIsIdempotent(t *testing.T) {
	col := NewCollector(1, nil)
	if col.Op("x") != col.Op("x") {
		t.Fatal("Op returned distinct recorders for the same name")
	}
	if col.Op("x") == col.Op("y") {
		t.Fatal("distinct names share a recorder")
	}
}

func TestNewCollectorRejectsBadProcessCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCollector(0, nil) did not panic")
		}
	}()
	NewCollector(0, nil)
}

func TestContextRejectsBadID(t *testing.T) {
	col := NewCollector(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Context(2) did not panic")
		}
	}()
	col.Context(2)
}

// TestSpanPublishesOnceAtEnd pins the publish-once contract: a span's
// steps stay off the shard while it is open and land exactly, heatmap and
// overflow included, when it ends.
func TestSpanPublishesOnceAtEnd(t *testing.T) {
	pool := primitive.NewPool()
	a := pool.New("a", 0)
	b := pool.New("b", 0)
	col := NewCollector(2, pool)
	late := pool.New("late", 0) // beyond the heatmap: counts as overflow
	ctx := col.Context(1)
	op := col.Op("probe")

	sp := op.Begin(ctx)
	ctx.Write(a, 1)
	ctx.Read(a)
	ctx.Read(b)
	if ctx.CAS(a, 0, 2) {
		t.Fatal("stale CAS succeeded")
	}
	if !ctx.CAS(a, 1, 2) {
		t.Fatal("CAS(a, 1, 2) failed")
	}
	ctx.Read(late)
	ctx.Write(late, 3)

	if got := ctx.Steps(); got != 7 {
		t.Fatalf("in-flight Steps = %d, want 7", got)
	}
	if st := col.Snapshot(); st.Reads+st.Writes+st.CASAttempts != 0 || len(st.Registers) != 0 || st.HeatOverflow != 0 {
		t.Fatalf("in-flight span visible before End: %+v", st)
	}

	sp.End()
	st := col.Snapshot()
	if st.Reads != 3 || st.Writes != 2 || st.CASAttempts != 2 || st.CASFailures != 1 {
		t.Fatalf("counters = reads %d writes %d cas %d casFail %d, want 3 2 2 1",
			st.Reads, st.Writes, st.CASAttempts, st.CASFailures)
	}
	if st.HeatOverflow != 2 {
		t.Fatalf("HeatOverflow = %d, want 2", st.HeatOverflow)
	}
	if len(st.Registers) != 2 || st.Registers[0].ID != a.ID() || st.Registers[0].Accesses != 4 ||
		st.Registers[1].ID != b.ID() || st.Registers[1].Accesses != 1 {
		t.Fatalf("heatmap = %+v, want a:4 b:1", st.Registers)
	}
	steps := st.Ops[0].Steps
	if steps.Count != 1 || steps.Sum != 7 || steps.Buckets[bucketIndex(7)] != 1 {
		t.Fatalf("Steps = %+v, want one observation of 7", steps)
	}
	if got := ctx.Steps(); got != 7 {
		t.Fatalf("Steps after End = %d, want 7", got)
	}

	// A second span re-uses the cleared deltas: nothing is published twice.
	sp = op.Begin(ctx)
	ctx.Read(b)
	sp.End()
	st = col.Snapshot()
	if st.Reads != 4 || st.Registers[0].Accesses != 4 || st.Registers[1].Accesses != 2 {
		t.Fatalf("after second span: reads %d heatmap %+v, want 4 and a:4 b:2", st.Reads, st.Registers)
	}
}

// TestSpanDoesNotAllocate: once a context is warm, a whole operation —
// Begin, steps, bound scoring, End and its publication — allocates nothing.
func TestSpanDoesNotAllocate(t *testing.T) {
	pool := primitive.NewPool()
	regs := pool.NewSlice("r", 4, 0)
	col := NewCollector(1, pool)
	col.SetOpBound("op", OpBoundConfig{Worst: 100, Uncontended: 2})
	ctx := col.Context(0)
	op := col.Op("op")
	run := func() {
		sp := op.Begin(ctx)
		for _, r := range regs {
			v := ctx.Read(r)
			ctx.CAS(r, v, v+1)
		}
		ctx.Write(regs[0], 0)
		sp.End()
	}
	run() // warm the touched list
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("span allocates %.1f times per operation, want 0", allocs)
	}
}
