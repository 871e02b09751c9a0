// Package sim is a deterministic shared-memory execution simulator
// implementing the model of Hendler & Khait (PODC 2014, Section 2).
//
// Each simulated process is a coroutine running ordinary algorithm code
// against a primitive.Context; before every shared-memory event the process
// publishes the event it is about to apply (object, primitive, operands)
// and suspends until a scheduler grants it. The scheduler therefore sees the
// full set of *enabled events* — exactly the information the paper's
// adversary constructions (Lemma 1, Theorems 1 and 3) act on — and executes
// events one at a time, producing a totally ordered execution with a
// complete event log. Control passes between the scheduler and a process by
// a direct coroutine switch (iter.Pull): only one of them runs at a time,
// and a step costs no goroutine wake-up and no channel operation.
//
// Executions are deterministic: the same programs driven by the same
// schedule (sequence of process ids) produce the same events and responses.
// That is what makes the paper's "erase a set of processes" surgery
// (Lemma 2, Claim 1) operational — internal/adversary replays a filtered
// schedule on a fresh system and checks the survivors cannot tell.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// OpKind identifies a shared-memory primitive.
type OpKind int

// The three primitives of the paper's model.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpCAS
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Pending is an enabled event: the shared-memory event a process will apply
// the next time it is scheduled.
type Pending struct {
	Proc  int
	Kind  OpKind
	Reg   *primitive.Register
	Value int64 // write operand
	Old   int64 // CAS expected value
	New   int64 // CAS new value
}

// Event is an applied shared-memory event.
type Event struct {
	Seq     int // position in the execution (0-based)
	Proc    int // issuing process
	Kind    OpKind
	Reg     *primitive.Register
	RegID   int   // pool identifier of Reg, recorded at Step time (the access footprint's register index)
	Value   int64 // write operand
	Old     int64 // CAS expected value
	New     int64 // CAS new value
	Before  int64 // register value before the event
	After   int64 // register value after the event
	Changed bool  // After != Before (the paper's "non-trivial")
	CASOK   bool  // CAS success (meaningless for read/write)
}

// Footprint is the shared-memory access a step performed: the register
// index, the primitive applied, and — for CAS — whether it succeeded. It is
// the per-step record the dynamic partial-order reduction machinery
// (explore_dpor.go) computes independence from: a failed CAS did not write,
// so the trace-equivalence relation may treat it as a read.
func (e Event) Footprint() Footprint {
	return Footprint{Reg: e.RegID, Kind: e.Kind, Wrote: e.Kind == OpWrite || (e.Kind == OpCAS && e.CASOK)}
}

// Footprint returns the access the pending event would apply if it ran
// now, judged against current memory by Event.Footprint's rule: a pending
// CAS whose expected value differs from its register's current value will
// fail, so it counts as a read. Only a step that writes the register can
// change that verdict, and such a step is dependent on the CAS by this very
// footprint — which is what lets the sleep sets rely on it (see
// Independent).
//
//tradeoffvet:outofband the scheduler peeks at memory to judge a pending CAS; this inspection is the adversary's, not a process step
func (p Pending) Footprint() Footprint {
	wrote := p.Kind == OpWrite || (p.Kind == OpCAS && p.Reg.Load() == p.Old)
	return Footprint{Reg: p.Reg.ID(), Kind: p.Kind, Wrote: wrote}
}

// Program is the code a simulated process runs. It must be deterministic
// and must touch shared memory only through the provided context.
type Program func(ctx primitive.Context)

type procResp struct {
	value int64
	ok    bool
}

type proc struct {
	id       int
	program  Program
	pending  Pending     // the enabled event, while !done
	resp     procResp    // the response to the granted event, read by issue
	done     bool        // the program returned, panicked, or was unwound
	killed   bool        // Shutdown is unwinding the program
	panicked *PanicError // the program's panic, until pump reports it
	steps    int

	// The coroutine running program (see start): next runs it until the
	// program publishes its next event or returns, yield suspends it from
	// inside, and stop ends it for good.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// System owns a set of simulated processes and the execution they build.
// Not safe for concurrent use: one goroutine (the "adversary") drives it.
type System struct {
	procs    map[int]*proc
	order    []int
	events   []Event
	schedule []int
	observer func(Event)

	// rec, when non-nil, is the Recycler this system draws cached process
	// shells from (see Recycler.NewSystem); plain NewSystem leaves it nil.
	rec *Recycler
}

// errKilled unwinds a process's program at shutdown.
var errKilled = errors.New("sim: system shut down")

// ErrFinished is returned by Step for processes whose program has returned.
var ErrFinished = errors.New("sim: process has finished")

// PanicError reports that a process's program panicked. The process counts
// as finished. Schedule is the execution's schedule when the panic
// happened — it ends with the step whose response the program panicked on,
// if any — so running it on a freshly built system reproduces the panic.
type PanicError struct {
	Proc     int
	Value    any // what the program panicked with
	Schedule []int
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %d panicked after schedule %v: %v", e.Proc, e.Schedule, e.Value)
}

// Unwrap returns the panic value if it is an error: programs commonly
// panic with an error they have no way to return.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{procs: make(map[int]*proc)}
}

// Spawn starts a process with the given id running program, and runs it
// until its first enabled event is published (or the program returns
// without issuing any event). If the program panics first, Spawn returns a
// *PanicError.
func (s *System) Spawn(id int, program Program) error {
	if _, dup := s.procs[id]; dup {
		return fmt.Errorf("sim: process %d already spawned", id)
	}
	var p *proc
	if s.rec != nil {
		p = s.rec.proc()
	} else {
		p = new(proc)
		p.start(false)
	}
	p.id = id
	p.program = program
	s.procs[id] = p
	s.order = append(s.order, id)
	return s.pump(p)
}

// run executes p.program on p's coroutine. A panic other than the
// shutdown unwind is kept for pump to report.
func (p *proc) run() {
	defer func() {
		p.done = true
		if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity
			p.panicked = &PanicError{Proc: p.id, Value: r}
		}
	}()
	p.program(simCtx{p})
}

// pump resumes p until it publishes its next enabled event or its program
// ends, and reports a panic that ended it.
func (s *System) pump(p *proc) error {
	p.next()
	pe := p.panicked
	if pe == nil {
		return nil
	}
	p.panicked = nil
	pe.Schedule = append([]int(nil), s.schedule...)
	return pe
}

// Enabled returns the enabled events of all active processes, ordered by
// process id (deterministic).
func (s *System) Enabled() []Pending {
	ids := s.Active()
	out := make([]Pending, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.procs[id].pending)
	}
	return out
}

// EnabledOf returns process id's enabled event, or false if the process is
// finished or unknown.
func (s *System) EnabledOf(id int) (Pending, bool) {
	p, ok := s.procs[id]
	if !ok || p.done {
		return Pending{}, false
	}
	return p.pending, true
}

// Active returns the ids of spawned, unfinished processes in ascending
// order.
func (s *System) Active() []int { return s.appendActive(nil) }

// appendActive appends the ids Active returns to ids, so an engine can
// reuse one buffer at every node.
func (s *System) appendActive(ids []int) []int {
	n := len(ids)
	for _, id := range s.order {
		if !s.procs[id].done {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids[n:])
	return ids
}

// Done reports whether process id has finished its program.
func (s *System) Done(id int) bool {
	p, ok := s.procs[id]
	return ok && p.done
}

// StepsOf reports how many events process id has applied.
func (s *System) StepsOf(id int) int {
	p, ok := s.procs[id]
	if !ok {
		return 0
	}
	return p.steps
}

// WouldChange reports whether applying the pending event right now would
// change its register's value — the paper's trivial/non-trivial
// classification, evaluated against current memory.
//
//tradeoffvet:outofband the scheduler peeks at memory to classify events; this inspection is the adversary's, not a process step
func WouldChange(p Pending) bool {
	cur := p.Reg.Load()
	switch p.Kind {
	case OpWrite:
		return p.Value != cur
	case OpCAS:
		return cur == p.Old && p.Old != p.New
	default:
		return false
	}
}

// Step applies process id's enabled event, appends it to the execution, and
// runs the process until it publishes its next event (or finishes). If the
// program panics on the event's response, Step returns the applied event
// together with a *PanicError.
func (s *System) Step(id int) (Event, error) {
	ev, err := s.step(id)
	if ev == nil {
		return Event{}, err
	}
	return *ev, err
}

// step is Step returning the applied event in place in the log (nil if none
// was applied), so that replaying a schedule copies no events.
//
//tradeoffvet:outofband the scheduler IS the shared memory here: it applies each event with direct register access and accounts the step itself
func (s *System) step(id int) (*Event, error) {
	p, ok := s.procs[id]
	if !ok {
		return nil, fmt.Errorf("sim: unknown process %d", id)
	}
	if p.done {
		return nil, fmt.Errorf("sim: step process %d: %w", id, ErrFinished)
	}

	pd := &p.pending
	before := pd.Reg.Load()
	var (
		after = before
		casOK bool
		resp  procResp
	)
	switch pd.Kind {
	case OpRead:
		resp = procResp{value: before}
	case OpWrite:
		pd.Reg.Store(pd.Value)
		after = pd.Value
	case OpCAS:
		casOK = pd.Reg.CompareAndSwap(pd.Old, pd.New)
		after = pd.Reg.Load()
		resp = procResp{ok: casOK}
	default:
		return nil, fmt.Errorf("sim: process %d has invalid pending op %v", id, pd.Kind)
	}

	s.events = append(s.events, Event{
		Seq:     len(s.events),
		Proc:    id,
		Kind:    pd.Kind,
		Reg:     pd.Reg,
		RegID:   pd.Reg.ID(),
		Value:   pd.Value,
		Old:     pd.Old,
		New:     pd.New,
		Before:  before,
		After:   after,
		Changed: after != before,
		CASOK:   casOK,
	})
	ev := &s.events[len(s.events)-1]
	s.schedule = append(s.schedule, id)
	p.steps++
	if s.observer != nil {
		s.observer(*ev)
	}

	p.resp = resp
	return ev, s.pump(p)
}

// Run applies a whole schedule (sequence of process ids), stopping at the
// first error.
func (s *System) Run(schedule []int) error {
	for i, id := range schedule {
		if _, err := s.step(id); err != nil {
			return fmt.Errorf("sim: schedule position %d: %w", i, err)
		}
	}
	return nil
}

// RunToCompletion steps the active processes round-robin until all finish
// or maxEvents is exceeded.
func (s *System) RunToCompletion(maxEvents int) error {
	for len(s.events) < maxEvents {
		ids := s.Active()
		if len(ids) == 0 {
			return nil
		}
		for _, id := range ids {
			if s.Done(id) {
				continue
			}
			if _, err := s.Step(id); err != nil {
				return err
			}
		}
	}
	if len(s.Active()) > 0 {
		return fmt.Errorf("sim: execution exceeded %d events", maxEvents)
	}
	return nil
}

// SetObserver installs a callback invoked synchronously from Step after
// each event is applied and logged — the hook live exporters and trackers
// (internal/aware, obs.ChromeTrace streaming) consume events through
// without waiting for the execution to finish. Pass nil to remove it. The
// callback runs on the scheduler's goroutine and must not re-enter the
// System.
func (s *System) SetObserver(fn func(Event)) { s.observer = fn }

// Events returns the execution's event log (shared slice: callers must not
// modify it).
func (s *System) Events() []Event { return s.events }

// Schedule returns the executed schedule so far (shared slice: callers must
// not modify it).
func (s *System) Schedule() []int { return s.schedule }

// Shutdown unwinds every process still inside its program, running the
// program's deferred calls (a step one of them issues unwinds too, and a
// panic one of them raises is dropped); the process's coroutine then
// exits, or parks for its next program if it belongs to a Recycler. The
// system must not be used afterwards; calling Shutdown again does nothing.
func (s *System) Shutdown() {
	for _, id := range s.order {
		p := s.procs[id]
		p.killed = true
		for !p.done {
			p.next()
		}
		p.killed, p.panicked = false, nil
	}
}

// simCtx adapts the scheduler handoff to primitive.Context.
type simCtx struct{ p *proc }

var _ primitive.Context = simCtx{}

// ID implements primitive.Context.
func (c simCtx) ID() int { return c.p.id }

// Read implements primitive.Context.
func (c simCtx) Read(r *primitive.Register) int64 {
	return c.issue(Pending{Kind: OpRead, Reg: r}).value
}

// Write implements primitive.Context.
func (c simCtx) Write(r *primitive.Register, v int64) {
	c.issue(Pending{Kind: OpWrite, Reg: r, Value: v})
}

// CAS implements primitive.Context.
func (c simCtx) CAS(r *primitive.Register, old, new int64) bool {
	return c.issue(Pending{Kind: OpCAS, Reg: r, Old: old, New: new}).ok
}

// issue publishes pd as the process's enabled event and suspends the
// process until the scheduler has applied it (Step) or unwinds it
// (Shutdown, or Recycler.Close stopping the coroutine).
func (c simCtx) issue(pd Pending) procResp {
	p := c.p
	pd.Proc = p.id
	p.pending = pd
	if !p.yield(struct{}{}) || p.killed {
		panic(errKilled)
	}
	return p.resp
}
