package history

import (
	"fmt"
	"sort"
)

// IncrementalSnapshot is the streaming CheckSnapshot. Construct with
// NewIncrementalSnapshot.
//
// It follows the same interval conditions as the batch checker (sequential
// single-writer updates, scanned values inside the
// [completed-before, started-before] window, mutually comparable views,
// real-time monotone views), with two deliberate divergences for live
// histories:
//
//   - CheckSnapshot rejects zero or duplicate per-segment update values as
//     precondition violations, because offline tests control their inputs.
//     A live workload may legitimately write anything, so the incremental
//     checker instead marks such values unresolvable and skips the checks
//     that would need them — never a false alarm, at the cost of reduced
//     coverage on degenerate value patterns.
//   - Scan resolution is deferred to Seal: a scan may return a value whose
//     update is invoked after the scan's own invocation, so the update is
//     only guaranteed admitted once the watermark passes the scan's
//     response.
type IncrementalSnapshot struct {
	relaxed  bool
	admitted int64
	lastInv  int64
	sealedTo int64

	segs map[int]*snapSeg

	// frontier is the pointwise max over sealed scans that ended before
	// every scan not yet sealed began; open holds the other sealed scans,
	// appended in response order.
	frontier []int
	open     []resolvedScan

	// deferred holds admitted scans awaiting resolution at Seal, by Res.
	deferred *minHeap[Op]

	// scanInvs holds every admitted scan's invocation in admit (that is,
	// invocation) order from scanLo on, and sealedInvs those of the
	// sealed ones. Both drop a matching front entry together, so
	// scanInvs[scanLo] is the least invocation of a scan not yet sealed.
	scanInvs   []int64
	scanLo     int
	sealedInvs *minHeap[int64]
}

// snapSeg is per-segment update state. Updates in one segment are
// sequential (enforced), so invs and ress are both ascending.
type snapSeg struct {
	lastRes int64
	count   int

	indexOf    map[int64]int // value -> 1-based update index; -1 = duplicate
	overflowed bool          // indexOf hit maxTrackedValues
	sawZero    bool          // some update wrote 0 (scan's 0 becomes ambiguous)

	invs, ress       []int64 // admitted update stamps, ascending
	invBase, resBase int     // counts pruned off the front
}

// resolvedScan is a sealed scan's index vector; -1 marks a component that
// could not be resolved (unknown values never cause or mask a violation).
type resolvedScan struct {
	inv, res int64
	vec      []int
}

const unknownIdx = -1

// NewIncrementalSnapshot returns an empty streaming snapshot checker.
// relaxed additionally treats values missing from the sampled sub-history
// as unresolvable instead of never-written violations — including a
// scanned 0, which an unobserved update may legitimately have written.
func NewIncrementalSnapshot(relaxed bool) *IncrementalSnapshot {
	return &IncrementalSnapshot{
		relaxed:    relaxed,
		segs:       make(map[int]*snapSeg),
		deferred:   newMinHeap(opResLess),
		sealedInvs: newMinHeap(func(a, b int64) bool { return a < b }),
	}
}

// Admit implements Incremental.
func (c *IncrementalSnapshot) Admit(op Op) *ViolationError {
	admitOrdered("snapshot", &c.lastInv, op)
	c.admitted++
	switch op.Kind {
	case KindUpdate:
		seg := c.segs[op.Proc]
		if seg == nil {
			seg = &snapSeg{indexOf: make(map[int64]int)}
			c.segs[op.Proc] = seg
		}
		if op.Inv < seg.lastRes {
			return &ViolationError{Checker: "snapshot", Detail: "single-writer updates overlap", Op: op}
		}
		seg.lastRes = op.Res
		seg.count++
		switch {
		case op.Arg == 0:
			seg.sawZero = true
		default:
			if _, dup := seg.indexOf[op.Arg]; dup {
				seg.indexOf[op.Arg] = unknownIdx
			} else if len(seg.indexOf) < maxTrackedValues {
				seg.indexOf[op.Arg] = seg.count
			} else {
				seg.overflowed = true
			}
		}
		seg.invs = append(seg.invs, op.Inv)
		seg.ress = append(seg.ress, op.Res)
	case KindScan:
		c.deferred.Push(op)
		c.scanInvs = append(c.scanInvs, op.Inv)
	}
	return nil
}

func (s *snapSeg) completedBefore(t int64) int {
	return s.resBase + sort.Search(len(s.ress), func(i int) bool { return s.ress[i] >= t })
}

func (s *snapSeg) startedBefore(t int64) int {
	return s.invBase + sort.Search(len(s.invs), func(i int) bool { return s.invs[i] >= t })
}

// prune retires update stamps below t. Callers pass a lower bound on every
// future query (min invocation over scans not yet sealed).
func (s *snapSeg) prune(t int64) {
	k := sort.Search(len(s.invs), func(i int) bool { return s.invs[i] >= t })
	if k > 0 {
		s.invBase += k
		s.invs = append(s.invs[:0:0], s.invs[k:]...)
	}
	k = sort.Search(len(s.ress), func(i int) bool { return s.ress[i] >= t })
	if k > 0 {
		s.resBase += k
		s.ress = append(s.ress[:0:0], s.ress[k:]...)
	}
}

// minPendingInv is the least invocation of a scan not yet sealed: scans
// still deferred plus anything yet to be admitted (Inv >= lastInv). It
// lower-bounds every future window query. Amortized O(log n).
func (c *IncrementalSnapshot) minPendingInv() int64 {
	for c.scanLo < len(c.scanInvs) && c.sealedInvs.Len() > 0 && c.sealedInvs.Peek() == c.scanInvs[c.scanLo] {
		c.sealedInvs.Pop()
		c.scanLo++
	}
	if c.scanLo > len(c.scanInvs)/2 {
		c.scanInvs = c.scanInvs[:copy(c.scanInvs, c.scanInvs[c.scanLo:])]
		c.scanLo = 0
	}
	if c.scanLo < len(c.scanInvs) {
		return c.scanInvs[c.scanLo]
	}
	return c.lastInv
}

// resolve maps a scan's value vector to update indices; unknownIdx marks
// components that cannot be pinned to a unique admitted update.
func (c *IncrementalSnapshot) resolve(s Op) ([]int, *ViolationError) {
	vec := make([]int, len(s.RetVec))
	for seg, v := range s.RetVec {
		info := c.segs[seg]
		idx := 0
		switch {
		case v == 0:
			// A scanned 0 is the initial value only if no update wrote 0.
			// In relaxed mode the observed history is a sub-history, so an
			// unobserved update may have written 0 — the component is never
			// resolvable; in exact mode only an admitted Update(0) makes it
			// ambiguous.
			if c.relaxed || (info != nil && info.sawZero) {
				idx = unknownIdx
			}
		case info == nil:
			if !c.relaxed {
				return nil, &ViolationError{Checker: "snapshot", Detail: "scan returned value for never-updated segment", Op: s}
			}
			idx = unknownIdx
		default:
			got, ok := info.indexOf[v]
			switch {
			case ok:
				idx = got // may itself be unknownIdx (duplicate value)
			case c.relaxed || info.overflowed:
				idx = unknownIdx
			default:
				return nil, &ViolationError{Checker: "snapshot", Detail: "scan returned a never-written segment value", Op: s}
			}
		}
		if idx != unknownIdx && info != nil {
			completed := info.completedBefore(s.Inv)
			started := info.startedBefore(s.Res)
			if idx < completed {
				return nil, &ViolationError{
					Checker: "snapshot",
					Detail:  fmt.Sprintf("segment %d: scan saw update #%d but #%d had completed", seg, idx, completed),
					Op:      s,
				}
			}
			if idx > started {
				return nil, &ViolationError{
					Checker: "snapshot",
					Detail:  fmt.Sprintf("segment %d: scan saw update #%d but only %d had started", seg, idx, started),
					Op:      s,
				}
			}
		}
		vec[seg] = idx
	}
	return vec, nil
}

// comparable reports whether two index vectors are ordered one way or the
// other, ignoring unknown components and length mismatches (ambiguous, so
// never a violation).
func vecsComparable(a, b []int) bool {
	if len(a) != len(b) {
		return true
	}
	le, ge := true, true
	for i := range a {
		if a[i] == unknownIdx || b[i] == unknownIdx {
			continue
		}
		if a[i] > b[i] {
			le = false
		}
		if a[i] < b[i] {
			ge = false
		}
	}
	return le || ge
}

// foldInto raises the frontier to the vector's known components.
func foldInto(frontier []int, vec []int) []int {
	for len(frontier) < len(vec) {
		frontier = append(frontier, 0)
	}
	for i, v := range vec {
		if v != unknownIdx && v > frontier[i] {
			frontier[i] = v
		}
	}
	return frontier
}

// dominates reports whether view has caught up with floor on every
// component both resolve (unknown components never cause a violation).
func dominates(view, floor []int) bool {
	if len(view) != len(floor) {
		return true
	}
	for i, f := range floor {
		if view[i] != unknownIdx && view[i] < f {
			return false
		}
	}
	return true
}

// Seal implements Incremental. Scans are resolved and checked in response
// order: by the time a scan's response drops below the watermark, every
// update it could have seen (invoked before its response) is admitted.
//
// A scan sealed later may have been invoked earlier, so an open scan is
// folded into the frontier only once it ended before every scan not yet
// sealed began. Until then each sealed scan is checked against it
// directly: it must dominate the open scans that ended before it began,
// and be comparable with the ones that overlap it.
func (c *IncrementalSnapshot) Seal(upTo int64) *ViolationError {
	if upTo > c.sealedTo {
		c.sealedTo = upTo
	}
	for c.deferred.Len() > 0 && c.deferred.Peek().Res < upTo {
		s := c.deferred.Pop()

		// open is in response order, so the scans to fold are a prefix.
		// s still counts as unsealed here.
		floor := c.minPendingInv()
		k := 0
		for ; k < len(c.open) && c.open[k].res < floor; k++ {
			c.frontier = foldInto(c.frontier, c.open[k].vec)
		}
		c.open = c.open[:copy(c.open, c.open[k:])]
		c.sealedInvs.Push(s.Inv)

		vec, verr := c.resolve(s)
		if verr != nil {
			return verr
		}

		// Real-time condition: this view must dominate every view that
		// completed before it began.
		if !dominates(vec, c.frontier) {
			return &ViolationError{
				Checker: "snapshot",
				Detail:  fmt.Sprintf("scan view %v older than a preceding scan's %v", vec, c.frontier),
				Op:      s,
			}
		}
		for _, o := range c.open {
			if o.res < s.Inv && !dominates(vec, o.vec) {
				return &ViolationError{
					Checker: "snapshot",
					Detail:  fmt.Sprintf("scan view %v older than a preceding scan's %v", vec, o.vec),
					Op:      s,
				}
			}
			// Chain condition: overlapping views must still be comparable.
			if !vecsComparable(o.vec, vec) {
				return &ViolationError{
					Checker: "snapshot",
					Detail:  fmt.Sprintf("incomparable scan views %v and %v", o.vec, vec),
					Op:      s,
				}
			}
		}
		c.open = append(c.open, resolvedScan{inv: s.Inv, res: s.Res, vec: vec})
	}

	// Bounded memory: drop update stamps no future scan can query.
	for _, seg := range c.segs {
		if len(seg.invs) > 1024 || len(seg.ress) > 1024 {
			seg.prune(c.minPendingInv())
		}
	}
	return nil
}

// Summary implements Incremental.
func (c *IncrementalSnapshot) Summary() PrefixSummary {
	frontier := append([]int(nil), c.frontier...)
	return PrefixSummary{
		Checker:      "snapshot",
		Admitted:     c.admitted,
		SealedTo:     c.sealedTo,
		Relaxed:      c.relaxed,
		ScanFrontier: frontier,
	}
}
