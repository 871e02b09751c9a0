// Package obs is the repository's live observability layer: a cheap,
// race-safe instrument for concurrent workloads running against the public
// objects, and exporters that make its measurements visible — Prometheus
// text exposition (obs/expo) and Chrome-trace-event JSON for simulated
// executions (ChromeTrace).
//
// Where primitive.Counting gives exact offline step accounting for a single
// process, obs.Collector observes a *running* multi-process workload. Each
// process's Instrumented context counts its steps in plain fields only that
// process touches and publishes them to the process's shard (atomic adds on
// a cache line no other writer uses) once per operation, when the
// operation's Span ends; a step issued outside any span publishes at once.
// Readers merge the shards on demand, so scraping never stalls the hot path.
// A scrape therefore sees an in-flight operation's steps only after the
// operation ends — at most one operation per process — and every count is
// exact at quiescence. Recorded per object:
//
//   - per-primitive event counters (reads, writes, CAS attempts);
//   - CAS failure counters — the paper's contention signal: a failed CAS is
//     a retry some other process forced;
//   - log2-bucketed histograms of steps-per-operation and latency, keyed by
//     operation name (Read, WriteMax, Increment, Scan, ...);
//   - a per-register access heatmap keyed by primitive.Pool ids, which
//     shows exactly which base objects a workload hammers (for Algorithm A:
//     the root switch vs. the leaf registers).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// shard holds one process's published counters. A shard has exactly one
// writer (the process owning the id) and any number of concurrent readers,
// so all fields are atomics; the trailing pad keeps adjacent heap
// allocations from false-sharing the hot counters.
type shard struct {
	reads        atomic.Int64
	writes       atomic.Int64
	casAttempts  atomic.Int64
	casFailures  atomic.Int64
	heatOverflow atomic.Int64

	heat []atomic.Int64 // per-register access counts, indexed by register id

	_ [24]byte
}

// Collector aggregates observations for one shared object (one
// primitive.Pool). It is immutable after construction except through its
// per-process Instrumented contexts, so Snapshot may run concurrently with
// any number of writers.
type Collector struct {
	processes int
	pool      *primitive.Pool
	shards    []*shard

	mu  sync.Mutex
	ops map[string]*Op

	base  time.Time    // monotonic origin of span timestamps
	clock func() int64 // test hook replacing now; nil in production
}

// NewCollector builds a collector for process ids in [0, processes). The
// pool, if non-nil, fixes the heatmap size to the registers allocated so
// far and supplies register names at snapshot time; accesses to registers
// allocated later land in the overflow cell.
func NewCollector(processes int, pool *primitive.Pool) *Collector {
	if processes < 1 {
		panic(fmt.Sprintf("obs: NewCollector: processes must be >= 1, got %d", processes))
	}
	heatCap := 0
	if pool != nil {
		heatCap = pool.Len()
	}
	c := &Collector{
		processes: processes,
		pool:      pool,
		shards:    make([]*shard, processes),
		ops:       make(map[string]*Op),
		base:      time.Now(),
	}
	for i := range c.shards {
		c.shards[i] = &shard{heat: make([]atomic.Int64, heatCap)}
	}
	return c
}

// now returns the nanoseconds since the collector was built: one monotonic
// clock reading, where time.Now reads both the wall and the monotonic clock.
func (c *Collector) now() int64 {
	if c.clock != nil {
		return c.clock()
	}
	return int64(time.Since(c.base))
}

// Processes returns the number of process slots.
func (c *Collector) Processes() int { return c.processes }

// Context returns an Instrumented context issuing process id's steps
// natively and recording them into id's shard. Like every
// primitive.Context, the result must be used by one goroutine at a time.
func (c *Collector) Context(id int) *Instrumented {
	if id < 0 || id >= c.processes {
		panic(fmt.Sprintf("obs: Collector.Context(%d): process id out of range [0, %d)", id, c.processes))
	}
	sh := c.shards[id]
	return &Instrumented{d: primitive.NewDirect(id), col: c, sh: sh, idx: id, heat: make([]int64, len(sh.heat))}
}

// Op returns the named operation's recorder, creating it on first use. Op
// is safe for concurrent callers; the returned *Op should be cached (by a
// handle) rather than looked up per operation.
func (c *Collector) Op(name string) *Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.ops[name]
	if op == nil {
		op = &Op{
			name:    name,
			steps:   make([]Histogram, c.processes),
			latency: make([]Histogram, c.processes),
			margin:  make([]Histogram, c.processes),
			exceed:  make([]exceedShard, c.processes),
		}
		c.ops[name] = op
	}
	return op
}

// Snapshot merges every shard into one consistent-enough view (each counter
// is read atomically; the set as a whole is not a linearizable cut, which
// is fine for monitoring). Steps of operations still in flight are not
// included: each process publishes an operation's steps when it ends.
func (c *Collector) Snapshot() Stats {
	st := Stats{}
	heatCap := 0
	if len(c.shards) > 0 {
		heatCap = len(c.shards[0].heat)
	}
	heat := make([]int64, heatCap)
	for _, sh := range c.shards {
		st.Reads += sh.reads.Load()
		st.Writes += sh.writes.Load()
		st.CASAttempts += sh.casAttempts.Load()
		st.CASFailures += sh.casFailures.Load()
		st.HeatOverflow += sh.heatOverflow.Load()
		for i := range sh.heat {
			heat[i] += sh.heat[i].Load()
		}
	}

	var names []string
	if c.pool != nil {
		for _, r := range c.pool.Registers() {
			names = append(names, r.String())
		}
	}
	for id, n := range heat {
		if n == 0 {
			continue
		}
		reg := RegisterStats{ID: id, Name: fmt.Sprintf("reg#%d", id), Accesses: n}
		if id < len(names) {
			reg.Name = names[id]
		}
		st.Registers = append(st.Registers, reg)
	}

	c.mu.Lock()
	ops := make([]*Op, 0, len(c.ops))
	for _, op := range c.ops {
		ops = append(ops, op)
	}
	c.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].name < ops[j].name })
	for _, op := range ops {
		os := OpStats{Name: op.name}
		for i := range op.steps {
			op.steps[i].snapshotInto(&os.Steps)
			op.latency[i].snapshotInto(&os.LatencyNS)
		}
		op.boundStatsInto(&os)
		st.Ops = append(st.Ops, os)
	}
	return st
}

// Op records one named operation's steps-per-op and latency histograms,
// sharded per process like the counters, plus — when a certified step
// budget is armed via Collector.SetOpBound — the bound-conformance
// margin histograms and exceedance counters (see bound.go).
type Op struct {
	name    string
	steps   []Histogram
	latency []Histogram

	bound     atomic.Pointer[OpBoundConfig]
	margin    []Histogram
	exceed    []exceedShard
	violLatch atomic.Bool
}

// Name returns the operation name.
func (o *Op) Name() string { return o.name }

// Begin opens a span for one operation issued through ctx. The returned
// Span must be Ended by the same goroutine before ctx opens another span:
// spans do not nest.
func (o *Op) Begin(ctx *Instrumented) Span {
	ctx.open = true
	return Span{op: o, ctx: ctx, start: ctx.col.now()}
}

// Span is an in-flight operation measurement.
type Span struct {
	op    *Op
	ctx   *Instrumented
	start int64
}

// End closes the span, recording the operation's step count and latency,
// scoring the step count against the armed bound, if any, and publishing
// the operation's counts.
func (s Span) End() {
	c := s.ctx
	latency := c.col.now() - s.start
	steps := c.pendingSteps()
	s.op.steps[c.idx].Observe(steps)
	s.op.latency[c.idx].Observe(latency)
	if cfg := s.op.bound.Load(); cfg != nil {
		s.op.observeBound(cfg, c.idx, steps, c.casFailures)
	}
	c.open = false
	c.publish()
}

// Instrumented is a primitive.Context that issues every shared-memory event
// on the native primitives and counts it. Inside a span the counts go to
// plain fields owned by the process and reach the process's shard in one
// publication per operation (see Span.End); outside any span each step
// publishes at once.
type Instrumented struct {
	d   primitive.Direct
	col *Collector
	sh  *shard
	idx int

	// open is set while a span is in flight; steps then accumulate in the
	// unpublished counts below.
	open bool

	// Unpublished counts. heat holds per-register deltas indexed by
	// register id; touched lists the ids whose delta is nonzero.
	reads, writes, casAttempts int64
	casFailures, heatOverflow  int64
	heat                       []int64
	touched                    []int

	// published is the steps this context has already published.
	published int64
}

var _ primitive.Context = (*Instrumented)(nil)

// ID implements primitive.Context.
func (c *Instrumented) ID() int { return c.idx }

// Read implements primitive.Context.
func (c *Instrumented) Read(r *primitive.Register) int64 {
	v := c.d.Read(r)
	if !c.open {
		c.publishStep(&c.sh.reads, r.ID())
	} else {
		c.reads++
		c.touch(r.ID())
	}
	return v
}

// Write implements primitive.Context.
func (c *Instrumented) Write(r *primitive.Register, v int64) {
	c.d.Write(r, v)
	if !c.open {
		c.publishStep(&c.sh.writes, r.ID())
	} else {
		c.writes++
		c.touch(r.ID())
	}
}

// CAS implements primitive.Context. A false return is counted as a CAS
// failure: the register moved under the caller, i.e. contention.
func (c *Instrumented) CAS(r *primitive.Register, old, new int64) bool {
	ok := c.d.CAS(r, old, new)
	if !c.open {
		if !ok {
			c.sh.casFailures.Add(1)
		}
		c.publishStep(&c.sh.casAttempts, r.ID())
	} else {
		if !ok {
			c.casFailures++
		}
		c.casAttempts++
		c.touch(r.ID())
	}
	return ok
}

// publishStep publishes one step issued outside any span on register id:
// one atomic add to the primitive's shard counter and one to the heat cell.
func (c *Instrumented) publishStep(counter *atomic.Int64, id int) {
	counter.Add(1)
	if uint(id) < uint(len(c.sh.heat)) {
		c.sh.heat[id].Add(1)
	} else {
		c.sh.heatOverflow.Add(1)
	}
	c.published++
}

// touch counts one in-span access to register id in the heat deltas, or
// in the overflow count for ids allocated after the collector was built
// (e.g. by lazily-growing objects).
func (c *Instrumented) touch(id int) {
	heat := c.heat
	if uint(id) >= uint(len(heat)) {
		c.heatOverflow++
		return
	}
	if heat[id] == 0 {
		c.touched = append(c.touched, id)
	}
	heat[id]++
}

// pendingSteps returns the steps counted but not yet published.
func (c *Instrumented) pendingSteps() int64 { return c.reads + c.writes + c.casAttempts }

// publish moves the unpublished counts to the shard: one atomic add per
// nonzero counter and one per distinct register touched.
func (c *Instrumented) publish() {
	sh := c.sh
	if c.reads != 0 {
		sh.reads.Add(c.reads)
	}
	if c.writes != 0 {
		sh.writes.Add(c.writes)
	}
	if c.casAttempts != 0 {
		sh.casAttempts.Add(c.casAttempts)
	}
	if c.casFailures != 0 {
		sh.casFailures.Add(c.casFailures)
	}
	if c.heatOverflow != 0 {
		sh.heatOverflow.Add(c.heatOverflow)
	}
	for _, id := range c.touched {
		sh.heat[id].Add(c.heat[id])
		c.heat[id] = 0
	}
	c.touched = c.touched[:0]
	c.published += c.pendingSteps()
	c.reads, c.writes, c.casAttempts, c.casFailures, c.heatOverflow = 0, 0, 0, 0, 0
}

// Steps returns the shared-memory events issued through this context,
// including those of a span still in flight. Like the context itself, it
// belongs to the owning goroutine.
func (c *Instrumented) Steps() int64 { return c.published + c.pendingSteps() }

// Stats is a merged view of a Collector.
type Stats struct {
	Reads       int64
	Writes      int64
	CASAttempts int64
	CASFailures int64

	// Ops holds per-operation histograms, sorted by name.
	Ops []OpStats

	// Registers holds the access heatmap, sorted by register id; registers
	// never touched are omitted. HeatOverflow counts accesses to registers
	// allocated after the collector was built.
	Registers    []RegisterStats
	HeatOverflow int64
}

// OpStats is one operation's merged histograms.
type OpStats struct {
	Name      string
	Steps     HistogramSnapshot
	LatencyNS HistogramSnapshot

	// Bound is the bound-conformance view; Bound.Declared is false for
	// operations with no armed step budget.
	Bound OpBoundStats
}

// RegisterStats is one heatmap cell.
type RegisterStats struct {
	ID       int
	Name     string
	Accesses int64
}

// NamedStats pairs an object's name with its merged stats; it is the unit
// the exposition package renders.
type NamedStats struct {
	Object string
	Stats  Stats
}
