// Package flight is an always-on flight recorder and online
// linearizability monitor for live (non-simulated) runs.
//
// Live operations on the four object families stream
// invocation/response records into per-process lock-free ring buffers; a
// single background goroutine drains the rings and drives the incremental
// interval checkers from internal/history over a sliding window. The hot
// path is designed to disappear at the default sampling rate: an
// unsampled operation costs one local countdown decrement and a branch, and
// a sampled one costs two hybrid-clock stamps plus a handful of atomic
// stores into a preallocated slot.
//
// # Timestamps
//
// Record stamps come from a hybrid clock (Recorder.stamp): a CAS loop
// over max(wall-clock nanoseconds, last+1). Stamps are strictly monotone
// across all processes — so "A responded before B was invoked" is exact,
// which is what the interval checkers need — while staying close enough
// to wall-clock nanoseconds to plot (obs.HistoryTrace divides by 1e3 for
// Chrome-trace microseconds).
//
// # Ring design
//
// Each (object, process) pair owns one single-producer/single-consumer
// ring. The producer is the process goroutine (facade handles are
// per-process by contract), the consumer is the monitor. Slots use
// per-field atomics with a seqlock-style sequence word: the writer marks
// the slot busy (seq=0), stores the fields, publishes seq=pos+1, then
// publishes the new head. The reader validates seq before and after
// copying; a mismatch means the writer lapped the reader, and the record
// counts as dropped. Producers therefore never block and never take a
// lock; a slow monitor loses old records instead of stalling the
// workload.
//
// # Watermarks and soundness after drops
//
// The monitor admits records into a history.Stream only once the
// watermark — min(recorder clock, earliest in-flight invocation for the
// object) — has passed them, which is the admission contract the
// incremental checkers require. Begin publishes a provisional lower
// bound into the in-flight slot before stamping, and End appends the
// record to the ring before clearing the slot, so the watermark can
// never race past an operation it has not yet seen.
//
// Sampling (SampleEvery > 1) and ring drops both turn the observed
// history into a sub-history of the real one, so the monitor runs the
// checkers in relaxed mode — the subset-sound conditions only (see the
// soundness discussion in internal/history). A recorder running with
// SampleEvery == 1 starts in exact mode and degrades an object's stream
// to relaxed permanently the first time one of its rings drops a record.
package flight

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/restricteduse/tradeoffs/internal/history"
)

// Config tunes a Recorder. The zero value picks the defaults below.
type Config struct {
	// SampleEvery records one in N operations per process (default 64).
	// 1 records everything and enables exact-mode checking.
	SampleEvery int

	// WindowPerProc is the ring capacity, in records, for each
	// (object, process) pair; rounded up to a power of two (default 1024).
	WindowPerProc int

	// ArtifactWindow is how many admitted records per object are retained
	// for /debug/history dumps and violation artifacts (default 512).
	ArtifactWindow int

	// Poll is the monitor's drain interval (default 2ms).
	Poll time.Duration

	// ArtifactDir, when set, is where violation artifacts are written as
	// <object>-violation.history.json and .trace.json files.
	ArtifactDir string

	// OnViolation, when set, is called on the monitor goroutine for each
	// detected violation (after the artifact is built).
	OnViolation func(*Violation)
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.WindowPerProc <= 0 {
		c.WindowPerProc = 1024
	}
	if c.ArtifactWindow <= 0 {
		c.ArtifactWindow = 512
	}
	if c.Poll <= 0 {
		c.Poll = 2 * time.Millisecond
	}
	return c
}

// Recorder owns the clock, the taps, and the monitor goroutine. Create
// with New, register taps before Start, and Stop before discarding.
type Recorder struct {
	cfg   Config
	clock atomic.Int64

	mu      sync.Mutex
	taps    []*Tap
	started bool
	stopped bool

	stop    chan struct{}
	kick    chan chan struct{}
	done    chan struct{}
	dumpsCh chan dumpReq

	violMu     sync.Mutex
	violations []*Violation
}

// New returns a Recorder with the given configuration.
func New(cfg Config) *Recorder {
	return &Recorder{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		kick: make(chan chan struct{}),
		done: make(chan struct{}),
	}
}

// stamp returns the next hybrid-clock value: strictly greater than every
// previous stamp, and at least the current wall clock in nanoseconds.
func (r *Recorder) stamp() int64 {
	now := time.Now().UnixNano()
	for {
		last := r.clock.Load()
		t := now
		if t <= last {
			t = last + 1
		}
		if r.clock.CompareAndSwap(last, t) {
			return t
		}
	}
}

// Tap records one object's operations. Obtain with Recorder.Tap; methods
// on a given process index must be called from that process's goroutine
// only (the facade Handle contract).
type Tap struct {
	rec    *Recorder
	family string
	name   string
	sample int64
	procs  []tapProc

	// Gauges the stats/HTTP path reads while the monitor runs.
	recorded    atomic.Int64 // records drained from the rings
	dropped     atomic.Int64 // records lost to ring overwrites
	pending     atomic.Int64 // records buffered awaiting the watermark
	sealedTo    atomic.Int64 // last applied watermark
	relaxedFlag atomic.Bool
	violatedBit atomic.Bool

	// Monitor-owned state (single goroutine, never locked).
	stream   *history.Stream
	relaxed  bool
	recent   []history.Op // circular artifact/debug window
	recentN  int64        // total appended; next slot = recentN % cap
	violated bool
}

// tapProc is the per-process producer state, padded to keep neighboring
// processes off each other's cache lines.
type tapProc struct {
	left     int64 // operations until the next sampled one (producer-owned)
	ring     ring
	inflight atomic.Int64 // provisional/actual invocation stamp; 0 = idle
	_        [4]int64
}

// OpToken carries a sampled operation's invocation stamp from Begin to
// End. The zero token means "not sampled" and makes End a no-op.
type OpToken struct {
	inv int64
}

// Sampled reports whether this operation is being recorded.
func (t OpToken) Sampled() bool { return t.inv != 0 }

// Tap registers a recording tap for one object. family selects the
// checker (maxreg, counter, snapshot, consensus — see
// history.NewIncremental); name is the object's registry name; procs is
// its process count. Must be called before Start.
func (r *Recorder) Tap(family, name string, procs int) *Tap {
	if history.NewIncremental(family, false) == nil {
		panic(fmt.Sprintf("flight: unknown checker family %q", family))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		panic("flight: Tap after Start")
	}
	t := &Tap{
		rec:     r,
		family:  family,
		name:    name,
		sample:  int64(r.cfg.SampleEvery),
		procs:   make([]tapProc, procs),
		relaxed: r.cfg.SampleEvery > 1,
	}
	t.relaxedFlag.Store(t.relaxed)
	for i := range t.procs {
		t.procs[i].left = t.sample
		t.procs[i].ring.init(r.cfg.WindowPerProc)
	}
	t.stream = history.NewStream(history.NewIncremental(family, t.relaxed))
	t.recent = make([]history.Op, 0, r.cfg.ArtifactWindow)
	r.taps = append(r.taps, t)
	return t
}

// Begin starts recording one operation for process proc. Call the
// matching End (or EndVec) with the returned token. Every sample-th call
// per process is sampled; the others cost one decrement and a branch.
func (t *Tap) Begin(proc int) OpToken {
	p := &t.procs[proc]
	p.left--
	if p.left != 0 {
		return OpToken{}
	}
	p.left = t.sample
	// Publish a provisional lower bound before stamping so the monitor's
	// watermark can never pass an invocation it has not observed.
	p.inflight.Store(t.rec.clock.Load() + 1)
	inv := t.rec.stamp()
	p.inflight.Store(inv)
	return OpToken{inv: inv}
}

// End completes a scalar operation (everything except Scan).
func (t *Tap) End(proc int, tok OpToken, kind history.Kind, arg, ret int64) {
	if tok.inv == 0 {
		return
	}
	p := &t.procs[proc]
	res := t.rec.stamp()
	p.ring.push(kind, arg, ret, nil, tok.inv, res)
	p.inflight.Store(0) // after the push: the record is visible before the watermark may move
}

// Abort discards a sampled operation that failed without taking effect
// (e.g. a rejected out-of-bound write): nothing is recorded, and the
// in-flight stamp is cleared so the watermark can advance past it.
func (t *Tap) Abort(proc int, tok OpToken) {
	if tok.inv == 0 {
		return
	}
	t.procs[proc].inflight.Store(0)
}

// EndVec completes a Scan, recording its result vector.
func (t *Tap) EndVec(proc int, tok OpToken, vec []int64) {
	if tok.inv == 0 {
		return
	}
	p := &t.procs[proc]
	res := t.rec.stamp()
	p.ring.push(history.KindScan, 0, 0, vec, tok.inv, res)
	p.inflight.Store(0)
}

// watermark computes the admission bound for this tap: every record with
// an invocation below it has either been pushed to a ring already or
// will never exist. Must be called before draining the rings (the
// soundness argument in the package comment depends on the order).
func (t *Tap) watermark() int64 {
	w := t.rec.clock.Load() + 1
	for i := range t.procs {
		if v := t.procs[i].inflight.Load(); v != 0 && v < w {
			w = v
		}
	}
	return w
}

// ring is the single-producer/single-consumer seqlock ring described in
// the package comment.
type ring struct {
	slots []slot
	mask  int64
	head  atomic.Int64
	tail  int64 // consumer-owned
}

type slot struct {
	seq  atomic.Int64 // pos+1 when holding record pos; 0 mid-write
	kind atomic.Int32
	arg  atomic.Int64
	ret  atomic.Int64
	inv  atomic.Int64
	res  atomic.Int64
	vec  atomic.Pointer[[]int64]
}

func (g *ring) init(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	g.slots = make([]slot, size)
	g.mask = int64(size - 1)
}

// push publishes one record. Producer-only.
func (g *ring) push(kind history.Kind, arg, ret int64, vec []int64, inv, res int64) {
	pos := g.head.Load()
	s := &g.slots[pos&g.mask]
	s.seq.Store(0)
	s.kind.Store(int32(kind))
	s.arg.Store(arg)
	s.ret.Store(ret)
	s.inv.Store(inv)
	s.res.Store(res)
	if vec != nil {
		v := append([]int64(nil), vec...)
		s.vec.Store(&v)
	} else {
		s.vec.Store(nil)
	}
	s.seq.Store(pos + 1)
	g.head.Store(pos + 1)
}

// drain consumes every published record, invoking emit for each.
// Consumer-only. Returns how many records were lost to overwrites.
func (g *ring) drain(proc int, emit func(history.Op)) (drops int64) {
	head := g.head.Load()
	if lag := head - g.tail; lag > int64(len(g.slots)) {
		drops += lag - int64(len(g.slots))
		g.tail = head - int64(len(g.slots))
	}
	for g.tail < head {
		s := &g.slots[g.tail&g.mask]
		want := g.tail + 1
		if s.seq.Load() != want {
			drops++
			g.tail++
			continue
		}
		op := history.Op{
			Proc: proc,
			Kind: history.Kind(s.kind.Load()),
			Arg:  s.arg.Load(),
			Ret:  s.ret.Load(),
			Inv:  s.inv.Load(),
			Res:  s.res.Load(),
		}
		if v := s.vec.Load(); v != nil {
			op.RetVec = *v
		}
		if s.seq.Load() != want {
			// The producer lapped us mid-copy; the copy may be torn.
			drops++
			g.tail++
			continue
		}
		emit(op)
		g.tail++
	}
	return drops
}

// sortedTaps gives stats and dumps a stable order.
func (r *Recorder) sortedTaps() []*Tap {
	r.mu.Lock()
	taps := append([]*Tap(nil), r.taps...)
	r.mu.Unlock()
	sort.Slice(taps, func(i, j int) bool { return taps[i].name < taps[j].name })
	return taps
}
