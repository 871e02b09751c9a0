package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/obs/bounds"
	"github.com/restricteduse/tradeoffs/internal/obs/flight"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// This file is the bench-regression harness behind `make bench-json`: a
// fixed-seed throughput suite over the E6 workloads, emitting one JSON
// report (Report) that CI can diff run over run. Unlike the Go benchmarks in
// bench_test.go (which let the testing package pick iteration counts), every
// run here executes an identical, seed-determined schedule, so ns/op noise
// is the only run-to-run variance — steps/op and CAS-failure rates are
// exactly reproducible.

// ReportSchema identifies the JSON layout; bump on incompatible change.
// v2 added allocs_per_op, bytes_per_op, and wall_clock_ms to every result
// row. v1 documents are a strict field subset, so readers (Validate, the
// -check and -diff modes of cmd/benchjson) still accept them.
const ReportSchema = "tradeoffs/bench/v2"

// ReportSchemaV1 is the previous layout, accepted on read.
const ReportSchemaV1 = "tradeoffs/bench/v1"

// ThroughputConfig parameterizes RunThroughput.
type ThroughputConfig struct {
	// Procs is the number of concurrent processes per workload (default 8).
	Procs int
	// OpsPerProc is the per-process operation count (default 20000).
	// Restricted-use workloads cap it further to respect their limits.
	OpsPerProc int
	// Seed feeds every per-process rand.Source (default 1).
	Seed int64
}

// Result is one workload's measurements.
type Result struct {
	// Name is family/impl/workload[/variant], e.g.
	// "counter/farray/increment/padded".
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Ops is the total logical operations across all processes.
	Ops int64 `json:"ops"`
	// NsPerOp is wall-clock elapsed divided by Ops (the only field that
	// varies run to run).
	NsPerOp float64 `json:"ns_per_op"`
	// StepsPerOp is shared-memory events (reads+writes+CAS attempts) per
	// logical operation, measured by obs.Collector.
	StepsPerOp float64 `json:"steps_per_op"`
	// CASFailureRate is failed/attempted CAS, the paper's contention
	// signal; 0 when the workload issues no CAS.
	CASAttempts    int64   `json:"cas_attempts"`
	CASFailures    int64   `json:"cas_failures"`
	CASFailureRate float64 `json:"cas_failure_rate"`
	// AllocsPerOp and BytesPerOp are heap allocations (count and bytes)
	// per logical operation, from runtime.MemStats deltas around the
	// measured region (schema v2). They include every goroutine of the
	// process, so runs must not overlap.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// WallClockMS is the measured region's total elapsed time (schema v2):
	// the scaling signal for rows whose Ops differ, e.g. the explore
	// family's worker sweep.
	WallClockMS float64 `json:"wall_clock_ms"`
	// ExecsPerSec is complete executions per second; only the explore
	// family sets it (its "op" is one complete execution of the simulated
	// system, so the throughput reading deserves its natural unit).
	ExecsPerSec float64 `json:"execs_per_sec,omitempty"`
}

// Suite names, recorded in Report.Suite and used as the time-series axis
// (dev/bench/data.json groups entries per suite).
const (
	SuiteThroughput = "throughput"
	SuiteExplore    = "explore"
	SuiteContention = "contention"
	SuiteDpor       = "dpor"
)

// Report is the bench-json document.
type Report struct {
	Schema string `json:"schema"`
	// Suite names the generator ("throughput" or "explore"). Optional on
	// read: pre-metadata v2 and all v1 documents lack it.
	Suite      string `json:"suite,omitempty"`
	Seed       int64  `json:"seed"`
	Procs      int    `json:"procs"`
	OpsPerProc int    `json:"ops_per_proc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Timestamp attribute the run to a revision and an instant.
	// They are never set by the suite runners — no time.Now in the schema's
	// default path, keeping fixed-seed runs byte-reproducible — only by
	// cmd/benchjson's -commit/-timestamp flags (or its -append stamping).
	// Timestamp, when present, is RFC 3339.
	Commit    string `json:"commit,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
	// Host is the measuring machine, filled by the suite runners via
	// ReadHost; optional on read for pre-metadata documents.
	Host    *Host    `json:"host,omitempty"`
	Results []Result `json:"results"`
}

// Validate checks the report is schema-complete: CI fails the bench step on
// any error here rather than uploading a half-written artifact.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema && r.Schema != ReportSchemaV1 {
		return fmt.Errorf("bench: schema %q, want %q (or legacy %q)", r.Schema, ReportSchema, ReportSchemaV1)
	}
	if r.Suite != "" && r.Suite != SuiteThroughput && r.Suite != SuiteExplore &&
		r.Suite != SuiteContention && r.Suite != SuiteDpor {
		return fmt.Errorf("bench: unknown suite %q (want %q, %q, %q, or %q)",
			r.Suite, SuiteThroughput, SuiteExplore, SuiteContention, SuiteDpor)
	}
	if r.Timestamp != "" {
		if _, err := time.Parse(time.RFC3339, r.Timestamp); err != nil {
			return fmt.Errorf("bench: timestamp %q is not RFC 3339: %w", r.Timestamp, err)
		}
	}
	if r.Host != nil && r.Host.CPUs < 1 {
		return fmt.Errorf("bench: host block present but cpus=%d", r.Host.CPUs)
	}
	if r.Procs < 1 || r.OpsPerProc < 1 {
		return fmt.Errorf("bench: bad dimensions procs=%d ops_per_proc=%d", r.Procs, r.OpsPerProc)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("bench: no results")
	}
	seen := make(map[string]bool, len(r.Results))
	for i, res := range r.Results {
		if res.Name == "" {
			return fmt.Errorf("bench: result %d has no name", i)
		}
		if seen[res.Name] {
			return fmt.Errorf("bench: duplicate result %q", res.Name)
		}
		seen[res.Name] = true
		if res.Procs < 1 || res.Ops < 1 {
			return fmt.Errorf("bench: %s: bad dimensions procs=%d ops=%d", res.Name, res.Procs, res.Ops)
		}
		if res.NsPerOp <= 0 || res.StepsPerOp <= 0 {
			return fmt.Errorf("bench: %s: non-positive measurements ns/op=%g steps/op=%g",
				res.Name, res.NsPerOp, res.StepsPerOp)
		}
		if res.CASFailures < 0 || res.CASFailures > res.CASAttempts {
			return fmt.Errorf("bench: %s: CAS failures %d out of range [0, %d]",
				res.Name, res.CASFailures, res.CASAttempts)
		}
		if res.CASFailureRate < 0 || res.CASFailureRate > 1 {
			return fmt.Errorf("bench: %s: CAS failure rate %g outside [0,1]", res.Name, res.CASFailureRate)
		}
		// v1 rows predate the allocation and wall-clock columns; only v2
		// documents promise them.
		if r.Schema == ReportSchema {
			if res.AllocsPerOp < 0 || res.BytesPerOp < 0 {
				return fmt.Errorf("bench: %s: negative allocation measurements allocs/op=%g bytes/op=%g",
					res.Name, res.AllocsPerOp, res.BytesPerOp)
			}
			if res.WallClockMS <= 0 {
				return fmt.Errorf("bench: %s: non-positive wall clock %gms", res.Name, res.WallClockMS)
			}
		}
	}
	return nil
}

// measurement is the raw output of one measured region: wall time, merged
// obs stats, and the process-wide heap-allocation deltas. Mallocs and
// TotalAlloc are cumulative and monotone, so the deltas are GC-independent;
// they do cover every goroutine in the process, which is why measured
// regions never overlap.
type measurement struct {
	elapsed time.Duration
	stats   obs.Stats
	allocs  uint64
	bytes   uint64
}

// measure brackets run with MemStats readings and a wall clock.
func measure(run func()) measurement {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	run()
	elapsed := time.Since(began)
	runtime.ReadMemStats(&after)
	return measurement{
		elapsed: elapsed,
		allocs:  after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}
}

// runParallel drives procs goroutines through ops calls of op each (after a
// common start barrier) and returns the region's measurement (wall time,
// merged obs stats, allocation deltas). op receives an instrumented context
// (so every shared-memory event is counted), the process id, and a
// process-seeded RNG. The workload goroutines run under pprof labels
// (bench_suite, bench_workload), so a -profile capture attributes samples
// to the row that tripped the regression gate.
func runParallel(name string, procs int, ops int64, seed int64, pool *primitive.Pool,
	op func(ctx primitive.Context, id int, rng *rand.Rand, i int64) error) (measurement, error) {
	return runParallelCol(obs.NewCollector(procs, pool), name, procs, ops, seed, op)
}

// runParallelCol is runParallel with a caller-supplied collector, for
// rows that pre-arm it (bound conformance) or inspect it afterwards.
func runParallelCol(col *obs.Collector, name string, procs int, ops int64, seed int64,
	op func(ctx primitive.Context, id int, rng *rand.Rand, i int64) error) (measurement, error) {

	ctxs := make([]*obs.Instrumented, procs)
	for id := range ctxs {
		ctxs[id] = col.Context(id)
	}

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		errMu sync.Mutex
		first error
		m     measurement
	)
	// Goroutines inherit the creator's label set, so spawning inside the
	// labeled region tags every workload goroutine; the labels are a no-op
	// unless a CPU profile is being captured.
	pprof.Do(context.Background(), pprof.Labels("bench_suite", SuiteThroughput, "bench_workload", name),
		func(context.Context) {
			for id := 0; id < procs; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(id)))
					ctx := ctxs[id]
					<-start
					for i := int64(0); i < ops; i++ {
						if err := op(ctx, id, rng, i); err != nil {
							errMu.Lock()
							if first == nil {
								first = fmt.Errorf("process %d op %d: %w", id, i, err)
							}
							errMu.Unlock()
							return
						}
					}
				}(id)
			}
			m = measure(func() {
				close(start)
				wg.Wait()
			})
		})
	m.stats = col.Snapshot()
	return m, first
}

// result folds a run's raw numbers into a Result row. logicalOps is the
// operation count ns/op and steps/op are normalized by (it can differ from
// the call count, e.g. batched adds count the coalesced increments).
func result(name string, procs int, logicalOps int64, m measurement) Result {
	st := m.stats
	steps := st.Reads + st.Writes + st.CASAttempts
	r := Result{
		Name:        name,
		Procs:       procs,
		Ops:         logicalOps,
		NsPerOp:     float64(m.elapsed.Nanoseconds()) / float64(logicalOps),
		StepsPerOp:  float64(steps) / float64(logicalOps),
		CASAttempts: st.CASAttempts,
		CASFailures: st.CASFailures,
		AllocsPerOp: float64(m.allocs) / float64(logicalOps),
		BytesPerOp:  float64(m.bytes) / float64(logicalOps),
		WallClockMS: float64(m.elapsed.Nanoseconds()) / 1e6,
	}
	if st.CASAttempts > 0 {
		r.CASFailureRate = float64(st.CASFailures) / float64(st.CASAttempts)
	}
	return r
}

// capOps bounds a restricted-use workload's per-process count so the total
// stays within limit.
func capOps(opsPerProc, procs int, limit int64) int64 {
	ops := int64(opsPerProc)
	if max := limit / int64(procs); ops > max {
		ops = max
	}
	if ops < 1 {
		ops = 1
	}
	return ops
}

// RunThroughput executes the full fixed-seed suite and returns its report.
func RunThroughput(cfg ThroughputConfig) (*Report, error) {
	if cfg.Procs <= 0 {
		cfg.Procs = 8
	}
	if cfg.OpsPerProc <= 0 {
		cfg.OpsPerProc = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	procs := cfg.Procs
	ops := int64(cfg.OpsPerProc)

	rep := &Report{
		Schema:     ReportSchema,
		Suite:      SuiteThroughput,
		Seed:       cfg.Seed,
		Procs:      procs,
		OpsPerProc: cfg.OpsPerProc,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Host:       ReadHost(),
	}
	add := func(r Result, err error) error {
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, r)
		return nil
	}

	// --- counters: contended increment, every implementation ---

	// The padded/unpadded pair is the false-sharing experiment: identical
	// algorithm and schedule, only the register allocator differs.
	for _, variant := range []struct {
		name string
		pool *primitive.Pool
	}{
		{"counter/farray/increment/unpadded", primitive.NewPool()},
		{"counter/farray/increment/padded", primitive.NewPadded()},
	} {
		c, err := counter.NewFArray(variant.pool, procs)
		if err != nil {
			return nil, err
		}
		m, err := runParallel(variant.name, procs, ops, cfg.Seed, variant.pool,
			func(ctx primitive.Context, _ int, _ *rand.Rand, _ int64) error {
				return c.Increment(ctx)
			})
		if err = add(result(variant.name, procs, ops*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// Batched add over the same padded f-array: window deltas coalesce
	// locally and land as one Add, amortizing the O(log N) propagation.
	// Normalized per logical increment so the row compares directly with
	// the increment rows above.
	{
		const window = 8
		pool := primitive.NewPadded()
		c, err := counter.NewFArray(pool, procs)
		if err != nil {
			return nil, err
		}
		pending := make([]struct {
			n int64
			_ [7]int64
		}, procs)
		name := fmt.Sprintf("counter/farray/add/batched-w%d", window)
		m, err := runParallel(name, procs, ops, cfg.Seed, pool,
			func(ctx primitive.Context, id int, _ *rand.Rand, i int64) error {
				pending[id].n++
				if pending[id].n < window && i != ops-1 {
					return nil
				}
				err := c.Add(ctx, pending[id].n)
				pending[id].n = 0
				return err
			})
		if err = add(result(name, procs, ops*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// Flight recorder overhead: the padded f-array increment schedule again,
	// with a recorder tap on the hot path. The three rows share one
	// schedule, so ns/op deltas isolate the tap cost — recorder-off is the
	// baseline, sampled is the default 1-in-64 production setting (the
	// acceptance bar: < 10% over off), exact records every operation. Each
	// recorded run doubles as an end-to-end check: the online monitor must
	// stay silent on a correct counter.
	for _, variant := range []struct {
		name   string
		attach bool
		sample int
	}{
		{"counter/farray/increment/flight-off", false, 0},
		{"counter/farray/increment/flight-sampled", true, 64},
		{"counter/farray/increment/flight-exact", true, 1},
	} {
		pool := primitive.NewPadded()
		c, err := counter.NewFArray(pool, procs)
		if err != nil {
			return nil, err
		}
		var (
			rec *flight.Recorder
			tap *flight.Tap
		)
		if variant.attach {
			rec = flight.New(flight.Config{SampleEvery: variant.sample, WindowPerProc: 1 << 12})
			tap = rec.Tap("counter", "bench", procs)
			rec.Start()
		}
		m, err := runParallel(variant.name, procs, ops, cfg.Seed, pool,
			func(ctx primitive.Context, id int, _ *rand.Rand, _ int64) error {
				if tap == nil {
					return c.Increment(ctx)
				}
				tok := tap.Begin(id)
				err := c.Increment(ctx)
				tap.End(id, tok, history.KindIncrement, 0, 0)
				return err
			})
		if rec != nil {
			rec.Stop()
			if vs := rec.Violations(); len(vs) > 0 {
				return nil, fmt.Errorf("bench: flight monitor flagged a correct counter: %v", vs[0].Err)
			}
		}
		if err = add(result(variant.name, procs, ops*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// Bound-conformance overhead: the padded f-array increment schedule a
	// third time, with obs spans on every operation. bounds-off is the
	// baseline (spans but no armed budget), bounds-margin adds the scoring
	// against the certified 8logn+2 worst-case and 4logn+2 uncontended
	// bounds, bounds-full stacks a sampled flight tap on top — the
	// "everything on" production configuration.
	// Each armed run doubles as a live certification: it must finish with
	// zero unexplained exceedances and zero worst-case violations.
	for _, variant := range []struct {
		name   string
		arm    bool
		attach bool
	}{
		{"counter/farray/increment/bounds-off", false, false},
		{"counter/farray/increment/bounds-margin", true, false},
		{"counter/farray/increment/bounds-full", true, true},
	} {
		pool := primitive.NewPadded()
		c, err := counter.NewFArray(pool, procs)
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector(procs, pool)
		inc := col.Op("increment")
		if variant.arm {
			b, err := bounds.Default().StepBound("counter.FArray", "Increment",
				bounds.Params{N: int64(procs), LogN: int64(c.Depth())})
			if err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			if !b.Declared() {
				return nil, fmt.Errorf("bench: no certified bound for counter.FArray.Increment")
			}
			col.SetOpBound("increment", obs.OpBoundConfig{
				Worst:           b.Worst,
				Uncontended:     b.Uncontended,
				WorstExpr:       b.WorstExpr,
				UncontendedExpr: b.UncontendedExpr,
			})
		}
		var (
			rec *flight.Recorder
			tap *flight.Tap
		)
		if variant.attach {
			rec = flight.New(flight.Config{SampleEvery: 64, WindowPerProc: 1 << 12})
			tap = rec.Tap("counter", "bench-bounds", procs)
			rec.Start()
		}
		m, err := runParallelCol(col, variant.name, procs, ops, cfg.Seed,
			func(ctx primitive.Context, id int, _ *rand.Rand, _ int64) error {
				inst := ctx.(*obs.Instrumented)
				if tap == nil {
					sp := inc.Begin(inst)
					err := c.Increment(ctx)
					sp.End()
					return err
				}
				tok := tap.Begin(id)
				sp := inc.Begin(inst)
				err := c.Increment(ctx)
				sp.End()
				tap.End(id, tok, history.KindIncrement, 0, 0)
				return err
			})
		if rec != nil {
			rec.Stop()
			if vs := rec.Violations(); len(vs) > 0 {
				return nil, fmt.Errorf("bench: flight monitor flagged a correct counter: %v", vs[0].Err)
			}
		}
		if variant.arm && err == nil {
			for _, op := range m.stats.Ops {
				if op.Name != "increment" {
					continue
				}
				if op.Bound.ExceedUnexplained > 0 || op.Bound.Violations > 0 {
					return nil, fmt.Errorf("bench: %s: bound conformance failed: %d unexplained exceedances, %d violations of steps<=%d",
						variant.name, op.Bound.ExceedUnexplained, op.Bound.Violations, op.Bound.Worst)
				}
			}
		}
		if err = add(result(variant.name, procs, ops*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	{
		pool := primitive.NewPadded()
		c, err := counter.NewCAS(pool, 0)
		if err != nil {
			return nil, err
		}
		m, err := runParallel("counter/cas/increment", procs, ops, cfg.Seed, pool,
			func(ctx primitive.Context, _ int, _ *rand.Rand, _ int64) error {
				return c.Increment(ctx)
			})
		if err = add(result("counter/cas/increment", procs, ops*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// AAC's limit fixes the total increment budget; keep it modest so the
	// O(log N * log limit) tree stays comparable across -ops settings.
	{
		const aacLimit = 1 << 16
		aacOps := capOps(cfg.OpsPerProc, procs, aacLimit)
		pool := primitive.NewPadded()
		c, err := counter.NewAAC(pool, procs, aacLimit)
		if err != nil {
			return nil, err
		}
		m, err := runParallel("counter/aac/increment", procs, aacOps, cfg.Seed, pool,
			func(ctx primitive.Context, _ int, _ *rand.Rand, _ int64) error {
				return c.Increment(ctx)
			})
		if err = add(result("counter/aac/increment", procs, aacOps*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// Corollary 1 reduction. The f-array snapshot's view arena grows with
	// every update, so cap the op count to keep memory flat.
	{
		snapOps := capOps(cfg.OpsPerProc, procs, 1<<17)
		pool := primitive.NewPadded()
		snap, err := snapshot.NewFArray(pool, procs, snapOps*int64(procs))
		if err != nil {
			return nil, err
		}
		c := counter.NewFromSnapshot(snap)
		m, err := runParallel("counter/snapshot/increment", procs, snapOps, cfg.Seed, pool,
			func(ctx primitive.Context, _ int, _ *rand.Rand, _ int64) error {
				return c.Increment(ctx)
			})
		if err = add(result("counter/snapshot/increment", procs, snapOps*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	// --- max registers: contended WriteMax of seeded random values ---

	maxregs := []struct {
		name  string
		bound int64
		build func(pool *primitive.Pool) (maxreg.MaxRegister, error)
	}{
		{"maxreg/algorithmA/writemax", 1 << 20, func(pool *primitive.Pool) (maxreg.MaxRegister, error) {
			return core.New(pool, procs, 1<<20)
		}},
		{"maxreg/aac/writemax", 1 << 12, func(pool *primitive.Pool) (maxreg.MaxRegister, error) {
			return maxreg.NewAAC(pool, 1<<12)
		}},
		{"maxreg/cas/writemax", 1 << 20, func(pool *primitive.Pool) (maxreg.MaxRegister, error) {
			return maxreg.NewCASRegister(pool, 1<<20)
		}},
	}
	for _, mr := range maxregs {
		pool := primitive.NewPadded()
		m, err := mr.build(pool)
		if err != nil {
			return nil, err
		}
		bound := mr.bound
		meas, err := runParallel(mr.name, procs, ops, cfg.Seed, pool,
			func(ctx primitive.Context, _ int, rng *rand.Rand, _ int64) error {
				return m.WriteMax(ctx, rng.Int63n(bound))
			})
		if err = add(result(mr.name, procs, ops*int64(procs), meas), err); err != nil {
			return nil, err
		}
	}

	// --- snapshot: contended single-writer Update ---

	{
		snapOps := capOps(cfg.OpsPerProc, procs, 1<<17)
		pool := primitive.NewPadded()
		s, err := snapshot.NewFArray(pool, procs, snapOps*int64(procs))
		if err != nil {
			return nil, err
		}
		m, err := runParallel("snapshot/farray/update", procs, snapOps, cfg.Seed, pool,
			func(ctx primitive.Context, _ int, _ *rand.Rand, i int64) error {
				return s.Update(ctx, i+1)
			})
		if err = add(result("snapshot/farray/update", procs, snapOps*int64(procs), m), err); err != nil {
			return nil, err
		}
	}

	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}
