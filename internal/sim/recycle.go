package sim

import (
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// A Recycler caches released Systems with their event logs and schedule
// slices, process shells with their parked coroutines, and one reusable
// register pool — so an exploration engine rebuilding
// thousands of systems per second reuses storage, and starts one coroutine
// per process id instead of one per rebuild. Exploration builds are
// deterministic, which is exactly what makes reuse sound: every cycle
// allocates the same registers in the same order and spawns the same
// processes.
//
// The coroutines outlive the systems that use them: Close ends them.
//
// A Recycler is NOT safe for concurrent use. ExploreParallel gives each
// worker its own, and closes it when the exploration returns.
//
// A Recycler is scheduler-side scaffolding reuse; no model step is involved.
type Recycler struct {
	systems []*System // released systems, emptied
	procs   []*proc   // idle shells, their coroutines parked
	started []*proc   // every shell this recycler has started, for Close
	pool    *primitive.Pool
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// NewSystem returns an empty system that draws cached process shells from
// the recycler: a previously Released system, when there is one, with its
// log storage. Behavior is identical to NewSystem; only allocation differs.
func (r *Recycler) NewSystem() *System {
	if n := len(r.systems); n > 0 {
		s := r.systems[n-1]
		r.systems = r.systems[:n-1]
		return s
	}
	return &System{procs: make(map[int]*proc), rec: r}
}

// Pool returns the recycler's register pool, Reset to empty: a
// deterministic builder allocating through it sees bit-identical registers
// (same storage, same identifiers) cycle after cycle. See
// primitive.Pool.Reset for the aliasing obligations.
func (r *Recycler) Pool() *primitive.Pool {
	if r.pool == nil {
		r.pool = primitive.NewPool()
	} else {
		r.pool.Reset()
	}
	return r.pool
}

// Release shuts s down and donates it to the recycler. The system, its
// event log, its schedule, and any registers allocated from the recycler's
// pool must not be used afterwards: the next build cycle reuses them.
// Systems built outside the recycler may be Released too — they are simply
// adopted.
func (r *Recycler) Release(s *System) {
	s.Shutdown()
	for id, p := range s.procs {
		// Every program has returned or been unwound. This recycler's
		// shells have parked their coroutines for the next program; the
		// coroutines of any other system's processes have exited.
		if s.rec == r {
			p.program = nil
			p.pending = Pending{}
			p.done = false
			p.steps = 0
			r.procs = append(r.procs, p)
		}
		delete(s.procs, id)
	}
	s.order = s.order[:0]
	s.events = s.events[:0]
	s.schedule = s.schedule[:0]
	s.observer = nil
	s.rec = r
	r.systems = append(r.systems, s)
}

// Close stops every coroutine the recycler started, unwinding the programs
// of systems built from it and never Released. Neither the recycler nor
// those systems may be used afterwards.
func (r *Recycler) Close() {
	for _, p := range r.started {
		p.stop()
	}
	r.started = nil
	r.procs = nil
}

// proc pops a cached process shell, or starts a new one whose coroutine
// parks between programs.
func (r *Recycler) proc() *proc {
	if n := len(r.procs); n > 0 {
		p := r.procs[n-1]
		r.procs = r.procs[:n-1]
		return p
	}
	p := new(proc)
	p.start(true)
	r.started = append(r.started, p)
	return p
}
