package sim

import (
	"fmt"
	"sort"
)

// This file is the dynamic partial-order reduction (DPOR) layer of the
// exploration engine. Exhaustive exploration (Explore, ExploreParallel)
// enumerates every interleaving, but most interleavings are redundant:
// schedules that differ only by swapping adjacent *independent* steps —
// steps on different registers, or read-only steps on the same register —
// produce literally the same events, responses, and final memory. Such
// schedules form one Mazurkiewicz trace equivalence class, and a checker
// that inspects only the execution (events, responses, final state) cannot
// distinguish its members, so visiting one representative per class finds
// exactly the same bugs at a fraction of the cost. This is the
// equivalence-class structure of read/write executions that the immediate
// snapshot protocol-complex literature formalizes; operationally we follow
// Godefroid's sleep sets, which prune a sibling branch exactly when the
// commuted interleaving through an earlier sibling has already been
// explored.
//
// Soundness is enforced mechanically rather than by trust:
// CrossCheckReduction runs reduced and unreduced exploration over the same
// configuration and verifies — via canonical-trace hashing over the
// recorded access footprints — that the reduced run visits every
// equivalence class the full run visits, and each exactly once. make
// race-sim runs it at smoke size on every push; the dpor bench suite
// records the reduction factors.

// Footprint is one step's shared-memory access: the register index, the
// primitive, and whether the step wrote (a write, or a successful CAS). A
// failed CAS changed nothing, so it counts as a read. Event.Footprint
// records the outcome; Pending.Footprint predicts it from current memory.
type Footprint struct {
	Reg   int
	Kind  OpKind
	Wrote bool
}

// Independent reports whether two steps with these footprints commute: they
// access different registers, or neither writes. Independent steps can be
// swapped in a schedule without changing either step's response, any later
// step, or the final memory — the Mazurkiewicz independence relation the
// sleep sets prune by and the trace canonicalization groups by.
//
// Exploration decides against Pending footprints and TraceHash groups Event
// footprints, and the two agree: a pending CAS is a read exactly when it
// would fail if run now. That makes the relation conditional on the state
// (Godefroid and Pirottin, "Refining dependencies improves partial-order
// verification methods", CAV 1993), and it stays sound for sleep sets
// because a sleeping CAS's outcome cannot change while it sleeps: a step
// that could change it writes its register, is therefore dependent on it,
// and wakes it.
func Independent(a, b Footprint) bool {
	if a.Reg != b.Reg {
		return true
	}
	return !a.Wrote && !b.Wrote
}

// ExploreReduced enumerates exactly one representative of EVERY
// Mazurkiewicz trace equivalence class of the system produced by build —
// instead of every interleaving, as Explore does — invoking check on each
// visited execution and returning how many executions it visited.
//
// The reduction is Godefroid-style sleep sets over the independence
// relation of Independent. Each search node carries a sleep set: processes
// whose pending step already had its subtree explored through an earlier
// sibling of some ancestor, in an order this branch merely commutes. A
// sleeping process is not scheduled at the node; entering a child via
// process p, a process q stays asleep only while its pending step is
// independent of p's (a dependent step wakes it, because the orderings now
// differ observably). The invariants, with the soundness argument, are
// spelled out in docs/exploration.md.
//
// For fully independent programs the schedule tree collapses to a single
// execution; for fully conflicting ones (every step a write to one shared
// register) there is no reduction and the visit set equals Explore's.
// check sees only complete executions, exactly as with Explore. Any
// property of the event log and final state (responses, final memory, step
// counts) is the same across a class, so checking representatives finds
// the same such bugs. Real-time order between operations is NOT such a
// property: a class mixes executions in which one operation finished
// before another began with executions in which the two overlapped, so a
// linearizability check over the recorded history may miss a violation
// that only the first kind shows (docs/exploration.md has the example).
//
// build must be deterministic, and budget behaves exactly as in Explore:
// the returned count equals the number of check calls, and reaching an
// execution beyond the cap returns a *BudgetError.
func ExploreReduced(build func() (*System, error), check func(*System) error, budget int) (int, error) {
	executions := 0

	var explore func(prefix, sleep []int) error
	explore = func(prefix, sleep []int) error {
		s, err := build()
		if err != nil {
			return fmt.Errorf("sim: explore build: %w", err)
		}
		defer s.Shutdown()
		if err := s.Run(prefix); err != nil {
			return fmt.Errorf("sim: explore replay: %w", err)
		}
		active := s.Active()
		if len(active) == 0 {
			if executions >= budget {
				return &BudgetError{Budget: budget, Prefix: append([]int(nil), prefix...)}
			}
			executions++
			if err := check(s); err != nil {
				return fmt.Errorf("sim: schedule %v: %w", prefix, err)
			}
			return nil
		}

		buf := make([]Footprint, len(active)+len(sleep))
		fps := pendingFootprints(buf[:0:len(active)], s, active)
		sleepFps := buf[len(active):]
		awake := splitSleeping(active, fps, sleep, sleepFps)
		// Explore the non-sleeping processes in ascending id order (the
		// deterministic sibling order ExploreParallel's reduced mode
		// reproduces). Once a sibling's subtree is done it joins the sleep
		// set of the later siblings: any schedule starting with a later,
		// independent first move was already visited modulo commutation.
		next, nextFps := active[:awake], fps[:awake]
		for i, id := range next {
			childSleep := sleepAfter(make([]int, 0, len(sleep)+i), sleep, sleepFps, next[:i], nextFps[:i], nextFps[i])
			// Re-slice with a hard cap so sibling branches cannot alias
			// one another's prefix storage.
			if err := explore(append(prefix[:len(prefix):len(prefix)], id), childSleep); err != nil {
				return err
			}
		}
		// A node whose enabled processes are all asleep is fully redundant:
		// every continuation commutes into an already-explored subtree.
		return nil
	}
	if err := explore(nil, nil); err != nil {
		return executions, err
	}
	return executions, nil
}

// pendingFootprints appends to dst the pending-step footprint of each
// active process at the current node, parallel to active.
func pendingFootprints(dst []Footprint, s *System, active []int) []Footprint {
	for _, id := range active {
		dst = append(dst, s.procs[id].pending.Footprint())
	}
	return dst
}

// splitSleeping removes the sleeping processes from a node's active set by
// merging two ascending lists: active, and the sleep set, which is a subset
// of it (a sleeping process is never stepped, so it stays active). The
// awake processes are compacted in place to the front of active, their
// footprints moving alongside in the parallel fps, and each sleeper's
// footprint is written to sleepFps, parallel to sleep. It returns the
// number of awake processes.
func splitSleeping(active []int, fps []Footprint, sleep []int, sleepFps []Footprint) int {
	awake, j := 0, 0
	for i, id := range active {
		if j < len(sleep) && sleep[j] == id {
			sleepFps[j] = fps[i]
			j++
			continue
		}
		active[awake], fps[awake] = id, fps[i]
		awake++
	}
	return awake
}

// sleepAfter appends to dst the sleep set of the child entered by the step
// with footprint next: every process from the parent's sleep set or its
// already-explored earlier siblings whose pending step is independent of
// next. A dependent step wakes the process — reordering it against next is
// observable, so its subtree must be explored again on this side. sleep and
// explored are ascending and disjoint, each with its parallel footprints;
// merging them keeps the result ascending.
func sleepAfter(dst, sleep []int, sleepFps []Footprint, explored []int, exploredFps []Footprint, next Footprint) []int {
	i, j := 0, 0
	for i < len(sleep) || j < len(explored) {
		if j == len(explored) || (i < len(sleep) && sleep[i] < explored[j]) {
			if Independent(sleepFps[i], next) {
				dst = append(dst, sleep[i])
			}
			i++
		} else {
			if Independent(exploredFps[j], next) {
				dst = append(dst, explored[j])
			}
			j++
		}
	}
	return dst
}

// TraceHash returns a canonical 64-bit hash of the execution's Mazurkiewicz
// trace: two executions of the same deterministic programs hash equal if
// and only if (modulo hash collision) one can be transformed into the other
// by swapping adjacent independent events. It is computed from the Foata
// normal form of the event log's dependence order — each event's level is
// one past the deepest earlier event it depends on (same process, or
// dependent footprints per Independent over *recorded* Event footprints, so
// a failed CAS commutes like the read it effectively was) — with each level
// sorted by process id. Same-process events are totally ordered, so a
// process appears at most once per level and the (level, proc) sort is a
// true canonical form, not just a heuristic.
func TraceHash(events []Event) uint64 {
	n := len(events)
	depth := make([]int, n)
	fps := make([]Footprint, n)
	for i, ev := range events {
		fps[i] = ev.Footprint()
	}
	for i := 0; i < n; i++ {
		d := 0
		for j := 0; j < i; j++ {
			if events[j].Proc == events[i].Proc || !Independent(fps[j], fps[i]) {
				if depth[j] > d {
					d = depth[j]
				}
			}
		}
		depth[i] = d + 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if depth[i] != depth[j] {
			return depth[i] < depth[j]
		}
		return events[i].Proc < events[j].Proc
	})

	// FNV-1a over the canonical sequence. Every field hashed is invariant
	// under independent-adjacent swaps (Seq is not, and is excluded).
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, i := range order {
		ev := &events[i]
		mix(uint64(depth[i]))
		mix(uint64(ev.Proc))
		mix(uint64(ev.RegID))
		mix(uint64(ev.Kind))
		var ok uint64
		if ev.CASOK {
			ok = 1
		}
		mix(ok)
		mix(uint64(ev.Value))
		mix(uint64(ev.Old))
		mix(uint64(ev.New))
		mix(uint64(ev.Before))
		mix(uint64(ev.After))
	}
	return h
}

// ReductionStats reports one CrossCheckReduction run: the exhaustive and
// reduced execution counts, the number of distinct trace equivalence
// classes the full run visited, and the resulting reduction factor.
type ReductionStats struct {
	FullExecs    int
	ReducedExecs int
	Classes      int
	// Factor is FullExecs / ReducedExecs — the headline cut. ≥ 1 whenever
	// the cross-check passes.
	Factor float64
}

// String renders the stats as the one-line summary the smoke targets print.
func (r ReductionStats) String() string {
	return fmt.Sprintf("full=%d reduced=%d classes=%d reduction=%.1fx",
		r.FullExecs, r.ReducedExecs, r.Classes, r.Factor)
}

// CrossCheckReduction is the mechanical soundness check of the DPOR layer:
// it explores the configuration exhaustively AND reduced, canonicalizes
// every visited execution with TraceHash, and fails unless the reduced run
// covers every trace equivalence class the full run visits, visits no
// class the full run does not (which would indicate a broken
// canonicalization or a nondeterministic build), and visits each class
// exactly once. budget bounds each run independently, exactly as in
// Explore.
func CrossCheckReduction(build func() (*System, error), budget int) (ReductionStats, error) {
	var stats ReductionStats

	full := make(map[uint64][]int) // class hash -> first schedule seen
	fullExecs, err := Explore(build, func(s *System) error {
		h := TraceHash(s.Events())
		if _, seen := full[h]; !seen {
			full[h] = append([]int(nil), s.Schedule()...)
		}
		return nil
	}, budget)
	if err != nil {
		return stats, fmt.Errorf("sim: crosscheck full exploration: %w", err)
	}

	reduced := make(map[uint64]bool)
	reducedExecs, err := ExploreReduced(build, func(s *System) error {
		reduced[TraceHash(s.Events())] = true
		return nil
	}, budget)
	if err != nil {
		return stats, fmt.Errorf("sim: crosscheck reduced exploration: %w", err)
	}

	stats = ReductionStats{
		FullExecs:    fullExecs,
		ReducedExecs: reducedExecs,
		Classes:      len(full),
	}
	if reducedExecs > 0 {
		stats.Factor = float64(fullExecs) / float64(reducedExecs)
	}

	var missing [][]int
	for h, sched := range full {
		if !reduced[h] {
			missing = append(missing, sched)
		}
	}
	if len(missing) > 0 {
		sortSchedulesLex(missing)
		return stats, fmt.Errorf(
			"sim: DPOR unsound on this configuration: reduced exploration missed %d of %d trace equivalence classes (e.g. the class of schedule %v)",
			len(missing), len(full), missing[0])
	}
	for h := range reduced {
		if _, ok := full[h]; !ok {
			return stats, fmt.Errorf(
				"sim: crosscheck inconsistency: reduced exploration visited a trace class the full exploration never produced (nondeterministic build, or a TraceHash bug)")
		}
	}
	if reducedExecs != len(reduced) {
		return stats, fmt.Errorf(
			"sim: DPOR not exact on this configuration: reduced exploration visited %d executions in %d trace equivalence classes, so two of them fell in one class",
			reducedExecs, len(reduced))
	}
	return stats, nil
}

// sortSchedulesLex orders schedules lexicographically so error messages are
// deterministic.
func sortSchedulesLex(schedules [][]int) {
	sort.Slice(schedules, func(i, j int) bool {
		a, b := schedules[i], schedules[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
