package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"

	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/counter/sharded"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// This file is the E13 contention sweep: the flat CAS counter against the
// elastic sharded counter across a writer-count × read-mix grid, locating
// the flat↔sharded crossover empirically. It is the real-hardware mirror
// of the paper's asymptotic claim — the flat counter is read-optimal and
// serializes writers on one cache line; the striped counter buys update
// scalability with O(stripes) reads — so the interesting output is where
// the ns/op curves cross as writers grow, and what the extra read cost is
// at each point.

// ContentionConfig parameterizes RunContention.
type ContentionConfig struct {
	// Writers lists the writer counts to sweep (default: powers of two
	// from 1 through max(8, 2*GOMAXPROCS) — past GOMAXPROCS the writers
	// oversubscribe, which still exercises preemption-driven CAS
	// interleaving on small hosts).
	Writers []int
	// OpsPerWriter is the per-writer operation count (default 20000).
	OpsPerWriter int
	// Seed feeds every per-process rand.Source (default 1).
	Seed int64
}

// DefaultContentionWriters returns the default sweep axis.
func DefaultContentionWriters() []int {
	max := 2 * runtime.GOMAXPROCS(0)
	if max < 8 {
		max = 8
	}
	var ws []int
	for w := 1; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// contentionImpls builds the two counters under comparison on fresh
// padded pools.
func contentionImpls(writers int) (map[string]counter.Counter, error) {
	flat, err := counter.NewCAS(primitive.NewPadded(), 0)
	if err != nil {
		return nil, err
	}
	// One extra slot: reads in the mixed workload come from the writers
	// themselves, but the sharded elasticity state is per-process, so the
	// constructor needs the exact process count.
	striped, err := sharded.New(primitive.NewPadded(), writers, sharded.Config{})
	if err != nil {
		return nil, err
	}
	return map[string]counter.Counter{"cas": flat, "sharded": striped}, nil
}

// RunContention executes the sweep and returns its report. Row names are
// contention/<impl>/w<writers>/<mix>: mix "update" is pure increments,
// mix "read1in8" interleaves one Read per eight operations on every
// writer. Report.Procs records the largest writer count (the sweep's
// ceiling); each row's Procs is its own writer count.
func RunContention(cfg ContentionConfig) (*Report, error) {
	if len(cfg.Writers) == 0 {
		cfg.Writers = DefaultContentionWriters()
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	maxWriters := 0
	for _, w := range cfg.Writers {
		if w < 1 {
			return nil, fmt.Errorf("bench: contention writer count %d < 1", w)
		}
		if w > maxWriters {
			maxWriters = w
		}
	}

	rep := &Report{
		Schema:     ReportSchema,
		Suite:      SuiteContention,
		Seed:       cfg.Seed,
		Procs:      maxWriters,
		OpsPerProc: cfg.OpsPerWriter,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Host:       ReadHost(),
	}
	ops := int64(cfg.OpsPerWriter)

	for _, writers := range cfg.Writers {
		impls, err := contentionImpls(writers)
		if err != nil {
			return nil, err
		}
		for _, implName := range []string{"cas", "sharded"} {
			c := impls[implName]
			for _, mix := range []struct {
				name  string
				every int64 // one Read per this many ops; 0 = never
			}{
				{"update", 0},
				{"read1in8", 8},
			} {
				name := fmt.Sprintf("contention/%s/w%d/%s", implName, writers, mix.name)
				every := mix.every
				m, err := runParallelIn(SuiteContention, name, writers, ops, cfg.Seed, nil,
					func(ctx primitive.Context, _ int, _ *rand.Rand, i int64) error {
						if every > 0 && i%every == 0 {
							c.Read(ctx)
							return nil
						}
						return c.Increment(ctx)
					})
				if err != nil {
					return nil, err
				}
				rep.Results = append(rep.Results, result(name, writers, ops*int64(writers), m))
			}
		}
	}

	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Crossover scans a contention report for the smallest writer count at
// which the sharded counter's pure-update ns/op beats the flat CAS
// counter's, returning 0 if it never does. The EXPERIMENTS.md E13 table
// and the dashboard annotation both read it.
func Crossover(rep *Report) int {
	type pair struct{ cas, sharded float64 }
	byWriters := make(map[int]*pair)
	var order []int
	at := func(w int) *pair {
		if byWriters[w] == nil {
			byWriters[w] = &pair{}
			order = append(order, w)
		}
		return byWriters[w]
	}
	for _, r := range rep.Results {
		var w int
		if _, err := fmt.Sscanf(r.Name, "contention/cas/w%d/update", &w); err == nil {
			at(w).cas = r.NsPerOp
		} else if _, err := fmt.Sscanf(r.Name, "contention/sharded/w%d/update", &w); err == nil {
			at(w).sharded = r.NsPerOp
		}
	}
	crossover := 0
	for _, w := range order {
		p := byWriters[w]
		if p.cas > 0 && p.sharded > 0 && p.sharded < p.cas {
			if crossover == 0 || w < crossover {
				crossover = w
			}
		}
	}
	return crossover
}

// runParallelIn is runParallel with an explicit pprof bench_suite label
// (runParallel itself predates multi-suite labeling and pins
// SuiteThroughput). pool may be nil when no register heatmap is wanted.
func runParallelIn(suite, name string, procs int, ops, seed int64, pool *primitive.Pool,
	op func(ctx primitive.Context, id int, rng *rand.Rand, i int64) error) (measurement, error) {

	col := obs.NewCollector(procs, pool)
	ctxs := make([]*obs.Instrumented, procs)
	for id := range ctxs {
		ctxs[id] = col.Context(id)
	}

	var (
		start = make(chan struct{})
		first error
		m     measurement
	)
	pprof.Do(context.Background(), pprof.Labels("bench_suite", suite, "bench_workload", name),
		func(context.Context) {
			done := make(chan error, procs)
			for id := 0; id < procs; id++ {
				go func(id int) {
					rng := rand.New(rand.NewSource(seed + int64(id)))
					ctx := ctxs[id]
					<-start
					for i := int64(0); i < ops; i++ {
						if err := op(ctx, id, rng, i); err != nil {
							done <- fmt.Errorf("process %d op %d: %w", id, i, err)
							return
						}
					}
					done <- nil
				}(id)
			}
			m = measure(func() {
				close(start)
				for i := 0; i < procs; i++ {
					if err := <-done; err != nil && first == nil {
						first = err
					}
				}
			})
		})
	m.stats = col.Snapshot()
	return m, first
}
