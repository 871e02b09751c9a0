// Package tradeoffs is a Go library of restricted-use concurrent objects —
// max registers, counters, and single-writer atomic snapshots — reproducing
// "Complexity Tradeoffs for Read and Update Operations" (Hendler & Khait,
// PODC 2014).
//
// The package exposes each object family behind a single constructor with
// an implementation selector, so applications can pick their side of the
// paper's read/update tradeoff:
//
//	reg, err := tradeoffs.NewMaxRegister(
//		tradeoffs.WithProcesses(8),
//		tradeoffs.WithMaxRegisterImpl(tradeoffs.MaxRegisterAlgorithmA),
//	)
//	h := reg.Handle(0)        // process 0's handle (one goroutine at a time)
//	_ = h.Write(42)
//	cur := h.Read()           // 42, in one shared-memory step
//
// Every object is linearizable and (except the CAS-loop variants, which are
// only lock-free) wait-free. Handles are per-process capabilities: process
// ids run from 0 to Processes-1, and a given id must be used by at most one
// goroutine at a time. Handles optionally count shared-memory steps
// (WithStepCounting), which is how the repository's experiments measure the
// paper's complexity claims — see EXPERIMENTS.md.
package tradeoffs

import (
	"errors"
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/counter/sharded"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/obs/bounds"
	"github.com/restricteduse/tradeoffs/internal/obs/flight"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// MaxRegisterImpl selects a max register implementation.
type MaxRegisterImpl int

// Max register implementations.
const (
	// MaxRegisterAlgorithmA is the paper's Algorithm A: O(1) Read,
	// O(min(log N, log v)) wait-free Write from read/write/CAS.
	MaxRegisterAlgorithmA MaxRegisterImpl = iota + 1

	// MaxRegisterAAC is the Aspnes-Attiya-Censor construction from
	// read/write only: O(log M) Read and Write. Requires a bound.
	MaxRegisterAAC

	// MaxRegisterCAS is a single-word CAS loop: O(1) Read, lock-free (not
	// wait-free) Write.
	MaxRegisterCAS

	// MaxRegisterUnboundedAAC is the unbounded read/write-only register:
	// O(log v) Write and O(log V) Read (V = current maximum), with the
	// switch tree materialized lazily as values grow.
	MaxRegisterUnboundedAAC
)

// CounterImpl selects a counter implementation.
type CounterImpl int

// Counter implementations.
const (
	// CounterFArray is the constant-read counter: O(1) Read, O(log N)
	// wait-free Increment (Jayanti-style f-array over CAS).
	CounterFArray CounterImpl = iota + 1

	// CounterAAC is the Aspnes-Attiya-Censor read/write counter:
	// O(log limit) Read, O(log N * log limit) Increment. Requires a
	// limit (restricted use).
	CounterAAC

	// CounterCAS is a single-word CAS loop: O(1) Read, lock-free (not
	// wait-free) Increment.
	CounterCAS

	// CounterSnapshot is Corollary 1's reduction over the constant-scan
	// snapshot: O(1) Read, O(log N) Increment. Requires a limit.
	CounterSnapshot

	// CounterSharded is the elastic striped counter: lock-free O(1)
	// Increment that spreads contended retries across cache-line-padded
	// stripes (growing the stripe set on observed CAS-failure rate,
	// collapsing it when contention drops), obstruction-free O(stripes)
	// Read. The update-optimal end of the tradeoff at real-hardware
	// scale; unbounded only (WithLimit is rejected).
	CounterSharded
)

// SnapshotImpl selects a snapshot implementation.
type SnapshotImpl int

// Snapshot implementations.
const (
	// SnapshotFArray is the constant-scan snapshot: O(1) Scan, O(log N)
	// wait-free Update. Requires a limit (restricted use).
	SnapshotFArray SnapshotImpl = iota + 1

	// SnapshotAfek is the classic wait-free snapshot from read/write:
	// O(N^2) Scan and Update. Requires a limit.
	SnapshotAfek

	// SnapshotDoubleCollect is the textbook obstruction-free snapshot:
	// O(1) Update, Scan unbounded under contention.
	SnapshotDoubleCollect
)

// config collects the options shared by all constructors.
type config struct {
	processes int
	bound     int64
	limit     int64
	counting  bool
	batch     int
	obs       *Observability
	flight    *FlightRecorder
	name      string

	maxRegImpl   MaxRegisterImpl
	counterImpl  CounterImpl
	snapshotImpl SnapshotImpl

	// adaptive, when non-nil, resolves the counter implementation (and
	// optionally the batching window) from a BackendObservation at
	// construction time — see WithAdaptiveBackend.
	adaptive AdaptivePolicy

	// boundTable overrides the embedded certified-bound table (see
	// WithBoundTableJSON); boundTableErr defers its parse error to
	// validate so option application stays infallible.
	boundTable    *bounds.Table
	boundTableErr error
}

// validate checks the option values every constructor shares. Negative
// bounds and limits are rejected here so the contract is uniform across
// implementations (including the CAS variants, whose 0 means "unbounded").
func (c config) validate() error {
	if c.processes < 1 {
		return fmt.Errorf("tradeoffs: processes must be >= 1, got %d", c.processes)
	}
	if c.bound < 0 {
		return fmt.Errorf("tradeoffs: negative bound %d", c.bound)
	}
	if c.limit < 0 {
		return fmt.Errorf("tradeoffs: negative limit %d", c.limit)
	}
	if c.batch < 0 {
		return fmt.Errorf("tradeoffs: negative batching window %d", c.batch)
	}
	if c.boundTableErr != nil {
		return fmt.Errorf("tradeoffs: %w", c.boundTableErr)
	}
	return nil
}

// Option configures a constructor.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithProcesses sets the number of processes sharing the object (default 8).
// Process ids for Handle run in [0, n).
func WithProcesses(n int) Option {
	return optionFunc(func(c *config) { c.processes = n })
}

// WithBound makes a max register M-bounded: Write accepts values in
// [0, bound). MaxRegisterAAC requires it; for Algorithm A a bound <= N also
// shrinks the structure.
func WithBound(bound int64) Option {
	return optionFunc(func(c *config) { c.bound = bound })
}

// WithLimit declares the restricted-use budget: the maximum number of
// Increment (counters) or Update (snapshots) operations. Implementations
// marked "requires a limit" reject configurations without one.
func WithLimit(limit int64) Option {
	return optionFunc(func(c *config) { c.limit = limit })
}

// WithStepCounting makes every handle count its shared-memory events,
// readable via Handle.Steps.
func WithStepCounting() Option {
	return optionFunc(func(c *config) { c.counting = true })
}

// WithBatching makes counter handles coalesce their pending deltas: Add and
// Increment buffer locally and propagate once every window calls (or on an
// explicit Flush, or before a Read through the same handle), cutting the
// shared-memory cost of an increment from O(log N) to O(log N / window)
// amortized. Slots are single-writer, so the coalesced delta lands as one
// linearizable update.
//
// The tradeoff is staleness, not correctness: deltas buffered on a handle
// are invisible to other processes until flushed, and a Read through a
// batching handle flushes its own buffer first (read-your-writes). After
// every handle has flushed (quiescence), reads are exact.
//
// window <= 1 disables batching (the default). Counters only; other
// families ignore the option.
func WithBatching(window int) Option {
	return optionFunc(func(c *config) { c.batch = window })
}

// WithMaxRegisterImpl selects the max register implementation (default
// MaxRegisterAlgorithmA).
func WithMaxRegisterImpl(impl MaxRegisterImpl) Option {
	return optionFunc(func(c *config) { c.maxRegImpl = impl })
}

// WithCounterImpl selects the counter implementation (default
// CounterFArray).
func WithCounterImpl(impl CounterImpl) Option {
	return optionFunc(func(c *config) { c.counterImpl = impl })
}

// WithSnapshotImpl selects the snapshot implementation (default
// SnapshotFArray).
func WithSnapshotImpl(impl SnapshotImpl) Option {
	return optionFunc(func(c *config) { c.snapshotImpl = impl })
}

// ErrLimitRequired is returned when a restricted-use implementation is
// selected without WithLimit.
var ErrLimitRequired = errors.New("tradeoffs: implementation requires WithLimit")

// ErrBoundRequired is returned when MaxRegisterAAC is selected without
// WithBound.
var ErrBoundRequired = errors.New("tradeoffs: implementation requires WithBound")

// ErrLimitUnsupported is returned when WithLimit is combined with an
// implementation that cannot enforce a restricted-use budget
// (CounterSharded: checking a limit would cost a full O(stripes) collect
// per update, exactly the read cost sharding exists to avoid).
var ErrLimitUnsupported = errors.New("tradeoffs: implementation does not support WithLimit")

func buildConfig(opts []Option) config {
	c := config{
		processes:    8,
		maxRegImpl:   MaxRegisterAlgorithmA,
		counterImpl:  CounterFArray,
		snapshotImpl: SnapshotFArray,
	}
	for _, o := range opts {
		o.apply(&c)
	}
	return c
}

// checkHandleID validates a Handle(id) argument. Out-of-range ids panic —
// uniformly, with or without observability — because a handle is a
// per-process capability: requesting one for a process that does not exist
// is a programming error on par with an out-of-bounds slice index, and
// returning a handle that fails (or worse, silently succeeds) per operation
// would let the bug travel far from its cause. The panic message names the
// family and the valid range.
func checkHandleID(family string, id, processes int) {
	if id < 0 || id >= processes {
		panic(fmt.Sprintf("tradeoffs: %s.Handle(%d): process id out of range [0, %d)", family, id, processes))
	}
}

// wiring is a facade object's per-object plumbing, shared by every handle
// it hands out.
type wiring struct {
	processes int
	counting  bool
	col       *obs.Collector // nil without WithObservability
	ftap      *flight.Tap    // nil without WithFlightRecorder
}

// wire is a freshly built object's one construction step. With
// observability it instantiates the object's step budgets first, because
// that is pure and can fail; then registers the object with its
// Observability and its flight recorder, rolling the first back if the
// second fails; and only then arms the budgets. A failed construction
// therefore leaves neither registry holding the object, and a retry can
// reuse its name.
func wire(c config, family string, pool *primitive.Pool, ob objectBounds) (wiring, error) {
	w := wiring{processes: c.processes, counting: c.counting}
	if c.obs == nil {
		var err error
		w.ftap, err = registerFlight(c, family, c.name)
		return w, err
	}
	budgets, err := ob.instantiate(c.boundTable)
	if err != nil {
		return wiring{}, err
	}
	col, name, err := c.obs.register(family, c.name, c.processes, pool)
	if err != nil {
		return wiring{}, err
	}
	if w.ftap, err = registerFlight(c, family, name); err != nil {
		c.obs.unregister(family, name)
		return wiring{}, err
	}
	w.col = col
	c.obs.armOpBounds(col, family, name, budgets, c.flight)
	return w, nil
}

// newHandle builds process id's handle.
func (w wiring) newHandle(id int) handle {
	h := handle{ctx: primitive.NewDirect(id)}
	if w.col != nil || w.ftap != nil {
		h.stages = &stages{ftap: w.ftap, fid: id}
	}
	switch {
	case w.col != nil:
		h.inst = w.col.Context(id)
		h.ctx = h.inst
		if w.counting {
			h.steps = h.inst
		}
	case w.counting:
		c := primitive.NewCounting(h.ctx)
		h.ctx, h.steps = c, c
	}
	return h
}

// op returns the named operation's obs recorder, or nil without
// observability.
func (w wiring) op(name string) *obs.Op {
	if w.col == nil {
		return nil
	}
	return w.col.Op(name)
}

// handle is the shared per-process plumbing.
//
//tradeoffvet:outofband a handle is itself the per-process capability: it owns exactly one process's context and never crosses goroutines
type handle struct {
	ctx primitive.Context

	// stages is the handle's operation pipeline; nil when the object has
	// neither observability nor a flight recorder.
	*stages

	// steps serves Steps: the Counting wrapper, or, when the object is
	// observed, the instrumented context, which already counts every step.
	// Nil without WithStepCounting.
	steps interface{ Steps() int64 }
}

// stages are the optional stages every operation on a handle passes
// through. Each is nil when its option is off.
type stages struct {
	// inst records the operation's steps and latency and scores its
	// steps against the armed bound.
	inst *obs.Instrumented

	// ftap streams the operation to a flight recorder; fid is the process
	// id the tap records it under.
	ftap *flight.Tap
	fid  int
}

// opScope is one operation in flight through a handle's stages.
type opScope struct {
	span obs.Span
	tok  flight.OpToken
}

// The handle's pipeline helpers (begin, beginUnrecorded, end, endVec,
// abort) must each stay under the inliner's budget, as
// `go build -gcflags='-m -m' .` reports: a plain handle's read costs a few
// ns, and an out-of-line call in it would be a visible share of that. So
// each is one nil check on the single *stages pointer plus one
// out-of-line call.

// begin opens an operation recorded by op's obs span and the flight tap.
func (h *handle) begin(op *obs.Op) opScope {
	if h.stages == nil {
		return opScope{}
	}
	return h.stages.begin(op, true)
}

// beginUnrecorded opens an operation that obs counts but the flight
// recorder never sees: Tap.Begin is not called, so no sample slot is used.
func (h *handle) beginUnrecorded(op *obs.Op) opScope {
	if h.stages == nil {
		return opScope{}
	}
	return h.stages.begin(op, false)
}

// end completes a scalar operation.
func (h *handle) end(s opScope, kind history.Kind, arg, ret int64) {
	if h.stages != nil {
		h.stages.end(s, kind, arg, ret)
	}
}

// endVec completes a Scan with its result vector.
func (h *handle) endVec(s opScope, vec []int64) {
	if h.stages != nil {
		h.stages.endVec(s, vec)
	}
}

// abort completes an operation that failed without taking effect
// (rejected write, exhausted limit): obs still scores it, and its flight
// record is dropped so the monitor never reasons about an update that did
// not happen.
func (h *handle) abort(s opScope) {
	if h.stages != nil {
		h.stages.abort(s)
	}
}

// begin opens the flight record before the obs span, and end and abort
// close it after the span, so obs latency excludes the recorder. The
// flight token is zero (ignored) when the operation is not sampled.
func (st *stages) begin(op *obs.Op, record bool) opScope {
	var s opScope
	if record && st.ftap != nil {
		s.tok = st.ftap.Begin(st.fid)
	}
	if st.inst != nil {
		s.span = op.Begin(st.inst)
	}
	return s
}

func (st *stages) end(s opScope, kind history.Kind, arg, ret int64) {
	if st.inst != nil {
		s.span.End()
	}
	if st.ftap != nil {
		st.ftap.End(st.fid, s.tok, kind, arg, ret)
	}
}

func (st *stages) endVec(s opScope, vec []int64) {
	if st.inst != nil {
		s.span.End()
	}
	if st.ftap != nil {
		st.ftap.EndVec(st.fid, s.tok, vec)
	}
}

func (st *stages) abort(s opScope) {
	if st.inst != nil {
		s.span.End()
	}
	if st.ftap != nil {
		st.ftap.Abort(st.fid, s.tok)
	}
}

// Steps reports shared-memory events issued through the handle, or 0 if the
// object was built without WithStepCounting.
func (h handle) Steps() int64 {
	if h.steps == nil {
		return 0
	}
	return h.steps.Steps()
}

// MaxRegister is a linearizable max register. Construct with
// NewMaxRegister; access through per-process Handles.
type MaxRegister struct {
	wiring
	impl maxreg.MaxRegister
}

// NewMaxRegister builds a max register.
func NewMaxRegister(opts ...Option) (*MaxRegister, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	pool := primitive.NewPadded()
	var (
		impl maxreg.MaxRegister
		err  error
	)
	switch c.maxRegImpl {
	case MaxRegisterAlgorithmA:
		impl, err = core.New(pool, c.processes, c.bound)
	case MaxRegisterAAC:
		if c.bound <= 0 {
			return nil, ErrBoundRequired
		}
		impl, err = maxreg.NewAAC(pool, c.bound)
	case MaxRegisterCAS:
		impl, err = maxreg.NewCASRegister(pool, c.bound)
	case MaxRegisterUnboundedAAC:
		impl = maxreg.NewUnboundedAAC(pool)
	default:
		return nil, fmt.Errorf("tradeoffs: unknown max register implementation %d", c.maxRegImpl)
	}
	if err != nil {
		return nil, fmt.Errorf("tradeoffs: %w", err)
	}
	w, err := wire(c, "maxreg", pool, maxRegBounds(impl, c.processes))
	if err != nil {
		return nil, err
	}
	return &MaxRegister{wiring: w, impl: impl}, nil
}

// Processes returns the number of process slots.
func (m *MaxRegister) Processes() int { return m.processes }

// Bound returns the exclusive value bound, or 0 if unbounded.
func (m *MaxRegister) Bound() int64 { return m.impl.Bound() }

// Handle returns process id's access handle. A handle must be used by one
// goroutine at a time; different handles may run fully in parallel. Handle
// panics if id is outside [0, Processes()) — see checkHandleID for why the
// contract is a panic rather than an error.
func (m *MaxRegister) Handle(id int) *MaxRegisterHandle {
	checkHandleID("MaxRegister", id, m.processes)
	return &MaxRegisterHandle{handle: m.newHandle(id), reg: m.impl, opRead: m.op("read"), opWrite: m.op("write")}
}

// MaxRegisterHandle is a per-process capability to a MaxRegister.
type MaxRegisterHandle struct {
	handle

	reg             maxreg.MaxRegister
	opRead, opWrite *obs.Op
}

// Read returns the largest value written so far (0 if none).
func (h *MaxRegisterHandle) Read() int64 {
	s := h.begin(h.opRead)
	v := h.reg.ReadMax(h.ctx)
	h.end(s, history.KindReadMax, 0, v)
	return v
}

// Write records v if it exceeds every previously written value.
func (h *MaxRegisterHandle) Write(v int64) error {
	s := h.begin(h.opWrite)
	if err := h.reg.WriteMax(h.ctx, v); err != nil {
		h.abort(s)
		return err
	}
	h.end(s, history.KindWriteMax, v, 0)
	return nil
}

// Counter is a linearizable shared counter. Construct with NewCounter.
type Counter struct {
	wiring
	impl  counter.Counter
	which CounterImpl
	batch int
}

// NewCounter builds a counter.
func NewCounter(opts ...Option) (*Counter, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.adaptive != nil {
		// Backend selection is a config-resolution layer: the policy sees
		// the live evidence and rewrites the implementation (and batching
		// window) before construction, so everything downstream — handles,
		// observability, flight taps — composes identically to an explicit
		// WithCounterImpl.
		choice := c.adaptive(c.backendObservation())
		if choice.Impl != 0 {
			c.counterImpl = choice.Impl
		}
		if choice.BatchWindow > 0 {
			c.batch = choice.BatchWindow
		}
	}
	pool := primitive.NewPadded()
	var (
		impl counter.Counter
		err  error
	)
	switch c.counterImpl {
	case CounterFArray:
		impl, err = counter.NewFArray(pool, c.processes)
	case CounterAAC:
		if c.limit <= 0 {
			return nil, ErrLimitRequired
		}
		impl, err = counter.NewAAC(pool, c.processes, c.limit)
	case CounterCAS:
		impl, err = counter.NewCAS(pool, c.limit)
	case CounterSnapshot:
		if c.limit <= 0 {
			return nil, ErrLimitRequired
		}
		var snap snapshot.Snapshot
		snap, err = snapshot.NewFArray(pool, c.processes, c.limit)
		if err == nil {
			impl = counter.NewFromSnapshot(snap)
		}
	case CounterSharded:
		if c.limit > 0 {
			return nil, ErrLimitUnsupported
		}
		impl, err = sharded.New(pool, c.processes, sharded.Config{})
	default:
		return nil, fmt.Errorf("tradeoffs: unknown counter implementation %d", c.counterImpl)
	}
	if err != nil {
		return nil, fmt.Errorf("tradeoffs: %w", err)
	}
	w, err := wire(c, "counter", pool, counterBounds(impl, c.processes))
	if err != nil {
		return nil, err
	}
	return &Counter{wiring: w, impl: impl, which: c.counterImpl, batch: c.batch}, nil
}

// Processes returns the number of process slots.
func (c *Counter) Processes() int { return c.processes }

// Impl returns the counter implementation actually constructed — the
// WithCounterImpl selection, or whatever WithAdaptiveBackend's policy
// resolved it to.
func (c *Counter) Impl() CounterImpl { return c.which }

// BatchWindow returns the WithBatching window, or 0 if batching is off.
func (c *Counter) BatchWindow() int {
	if c.batch <= 1 {
		return 0
	}
	return c.batch
}

// Handle returns process id's access handle. Handle panics if id is outside
// [0, Processes()) — see checkHandleID.
func (c *Counter) Handle(id int) *CounterHandle {
	checkHandleID("Counter", id, c.processes)
	return &CounterHandle{
		handle: c.newHandle(id),
		ctr:    c.impl,
		opRead: c.op("read"),
		opInc:  c.op("increment"),
		opAdd:  c.op("add"),
		window: c.batch,
	}
}

// CounterHandle is a per-process capability to a Counter.
//
// When the counter was built with WithBatching, the handle carries the
// process's coalescing buffer: see Add, Flush, and Pending. A handle is
// owned by one goroutine at a time (like every per-process capability), so
// the buffer needs no synchronization.
type CounterHandle struct {
	handle

	ctr                  counter.Counter
	opRead, opInc, opAdd *obs.Op

	// window is the WithBatching window (<= 1: batching off). pending is
	// the coalesced delta not yet propagated; buffered counts the calls
	// coalesced since the last flush. lastFlushErr remembers the most
	// recent flush attempt's outcome so callers can tell a stuck handle
	// (failed flush, deltas kept) from a merely unflushed one.
	window       int
	pending      int64
	buffered     int
	lastFlushErr error
}

// Read returns the number of increments that linearized before it. On a
// batching handle it first flushes the handle's own pending deltas
// (read-your-writes); deltas buffered on other handles stay invisible until
// those handles flush.
//
// When that implicit flush fails (e.g. a restricted-use LimitError), Read
// keeps its error-free signature and reports the stale propagated count —
// check Pending() > 0 to detect the stuck state and LastFlushErr for its
// cause.
func (h *CounterHandle) Read() int64 {
	if h.pending > 0 {
		// A failed flush keeps the deltas buffered; the error stays
		// visible through Flush/LastFlushErr, while Read reports the
		// propagated count.
		_ = h.Flush()
	}
	s := h.begin(h.opRead)
	v := h.ctr.Read(h.ctx)
	h.end(s, history.KindCounterRead, 0, v)
	return v
}

// Increment adds one to the counter. On a batching handle it coalesces like
// Add(1).
func (h *CounterHandle) Increment() error {
	if h.window > 1 {
		return h.Add(1)
	}
	s := h.begin(h.opInc)
	if err := h.ctr.Increment(h.ctx); err != nil {
		h.abort(s)
		return err
	}
	h.end(s, history.KindIncrement, 0, 0)
	return nil
}

// Add atomically adds delta >= 0 to the counter as one update: one leaf
// write plus one propagation regardless of delta, so pre-batched deltas
// cost the same O(log N) steps a single Increment does. On a batching
// handle (WithBatching) the delta is instead coalesced locally and
// propagated once every window calls — see Flush.
func (h *CounterHandle) Add(delta int64) error {
	if h.window > 1 {
		if delta < 0 {
			return &counter.NegativeDeltaError{Delta: delta}
		}
		h.pending += delta
		h.buffered++
		if h.buffered >= h.window {
			return h.Flush()
		}
		return nil
	}
	return h.add(delta)
}

// add propagates delta as one update through the handle's pipeline.
func (h *CounterHandle) add(delta int64) error {
	var s opScope
	if delta != 0 {
		s = h.begin(h.opAdd)
	} else {
		// Add(0) changes nothing and is not recorded: the weighted
		// counter checker counts every recorded increment with weight
		// max(Arg, 1).
		s = h.beginUnrecorded(h.opAdd)
	}
	if err := h.ctr.Add(h.ctx, delta); err != nil {
		h.abort(s)
		return err
	}
	h.end(s, history.KindIncrement, delta, 0)
	return nil
}

// Flush propagates the handle's coalesced deltas (if any) as one update.
// On error (e.g. a restricted-use LimitError) the deltas stay buffered so
// nothing is silently lost; the caller may retry. Flush on a non-batching
// handle is a no-op.
func (h *CounterHandle) Flush() error {
	if h.pending == 0 {
		h.buffered = 0
		h.lastFlushErr = nil
		return nil
	}
	// The coalesced delta lands as one update, so the flight recorder
	// sees it as one weighted increment (Arg = delta): deltas buffered on
	// the handle are invisible to other processes and stay unrecorded
	// until this propagation, which is exactly when they linearize.
	if err := h.add(h.pending); err != nil {
		h.lastFlushErr = err
		return err
	}
	h.pending, h.buffered = 0, 0
	h.lastFlushErr = nil
	return nil
}

// Pending returns the delta coalesced on this handle and not yet
// propagated (0 on a non-batching handle). Pending() > 0 after a Read is
// the signal that the handle is stuck: its flush failed and the reported
// count is stale — LastFlushErr says why.
func (h *CounterHandle) Pending() int64 { return h.pending }

// LastFlushErr returns the error from the handle's most recent flush
// attempt — explicit, window-triggered, or read-triggered — or nil if it
// succeeded or none has run. It is the diagnostic companion to Pending:
// Read cannot report flush failures itself, so a handle over its
// restricted-use budget would otherwise look merely unflushed.
func (h *CounterHandle) LastFlushErr() error { return h.lastFlushErr }

// Snapshot is a linearizable single-writer atomic snapshot. Construct with
// NewSnapshot.
type Snapshot struct {
	wiring
	impl snapshot.Snapshot

	// local[i] caches the last value process i successfully wrote to its
	// segment, so SnapshotHandle.Add needs no Scan. Single-writer (only
	// the goroutine driving process i touches local[i]) and padded so
	// writers stay off each other's cache lines.
	local []paddedSeg
}

type paddedSeg struct {
	v int64
	_ [7]int64 // pad to a 64-byte cache line
}

// NewSnapshot builds a snapshot with one segment per process.
func NewSnapshot(opts ...Option) (*Snapshot, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	pool := primitive.NewPadded()
	var (
		impl snapshot.Snapshot
		err  error
	)
	switch c.snapshotImpl {
	case SnapshotFArray:
		if c.limit <= 0 {
			return nil, ErrLimitRequired
		}
		impl, err = snapshot.NewFArray(pool, c.processes, c.limit)
	case SnapshotAfek:
		if c.limit <= 0 {
			return nil, ErrLimitRequired
		}
		impl, err = snapshot.NewAfek(pool, c.processes, c.limit)
	case SnapshotDoubleCollect:
		impl, err = snapshot.NewDoubleCollect(pool, c.processes)
	default:
		return nil, fmt.Errorf("tradeoffs: unknown snapshot implementation %d", c.snapshotImpl)
	}
	if err != nil {
		return nil, fmt.Errorf("tradeoffs: %w", err)
	}
	w, err := wire(c, "snapshot", pool, snapshotBounds(impl, c.processes))
	if err != nil {
		return nil, err
	}
	return &Snapshot{wiring: w, impl: impl, local: make([]paddedSeg, c.processes)}, nil
}

// Processes returns the number of segments (= process slots).
func (s *Snapshot) Processes() int { return s.processes }

// Handle returns process id's access handle; Update writes segment id.
// Handle panics if id is outside [0, Processes()) — see checkHandleID.
func (s *Snapshot) Handle(id int) *SnapshotHandle {
	checkHandleID("Snapshot", id, s.processes)
	return &SnapshotHandle{
		handle:   s.newHandle(id),
		snap:     s.impl,
		seg:      &s.local[id],
		opScan:   s.op("scan"),
		opUpdate: s.op("update"),
	}
}

// SnapshotHandle is a per-process capability to a Snapshot.
type SnapshotHandle struct {
	handle

	snap             snapshot.Snapshot
	seg              *paddedSeg
	opScan, opUpdate *obs.Op
}

// Update atomically sets the handle's segment to v.
func (h *SnapshotHandle) Update(v int64) error {
	s := h.begin(h.opUpdate)
	if err := h.snap.Update(h.ctx, v); err != nil {
		h.abort(s)
		return err
	}
	h.seg.v = v
	h.end(s, history.KindUpdate, v, 0)
	return nil
}

// Add atomically adds delta to the handle's segment and returns the new
// segment value. Segments are single-writer, so the read side is a local
// cache of the last written value (no Scan): the whole operation costs one
// Update. This is the snapshot-side primitive behind Corollary 1's
// counter-from-snapshot reduction.
func (h *SnapshotHandle) Add(delta int64) (int64, error) {
	next := h.seg.v + delta
	if err := h.Update(next); err != nil {
		return h.seg.v, err
	}
	return next, nil
}

// Scan atomically reads all segments.
func (h *SnapshotHandle) Scan() []int64 {
	s := h.begin(h.opScan)
	v := h.snap.Scan(h.ctx)
	h.endVec(s, v)
	return v
}
