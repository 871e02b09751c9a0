// Package snapshot provides single-writer atomic snapshot objects: an array
// of N segments where process i atomically overwrites segment i (Update)
// and any process atomically reads all segments (Scan). See Hendler &
// Khait, PODC 2014, Section 2, and Corollary 1 for the Scan/Update
// step-complexity tradeoff these implementations bracket.
//
// Implementations:
//
//   - DoubleCollect: the textbook obstruction-free snapshot from read/write
//     registers. Scan is O(N) per collect but can be starved by concurrent
//     updaters; Update is O(1).
//   - Afek: the Afek-Attiya-Dolev-Gafni-Merritt-Shavit wait-free snapshot.
//     Scan and Update are O(N^2) worst case; updates embed a full view so
//     starved scanners can borrow one.
//   - FArray: the Jayanti-style constant-Scan snapshot (a tree of partial
//     views refreshed with CAS). Scan is O(1) steps, Update is O(log N) —
//     the configuration Corollary 1 proves update-optimal for any
//     constant-Scan implementation.
//
// Step accounting counts shared-memory events only. The Afek and FArray
// implementations model the literature's "big register" assumption by
// storing immutable views in an append-only word arena and writing or
// CASing their word offsets; dereferencing an offset is local computation
// (no step), and offsets are never reused, so offset-CAS has LL/SC
// semantics (no ABA).
package snapshot

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// Snapshot is the single-writer atomic snapshot interface.
//
// The process-id discipline is the usual one: segment i is written only
// through contexts with ID() == i, and at most one goroutine uses a given
// process id at a time.
type Snapshot interface {
	// Update atomically sets segment ctx.ID() to v.
	Update(ctx primitive.Context, v int64) error

	// Scan atomically reads all segments. The returned slice is owned by
	// the caller.
	Scan(ctx primitive.Context) []int64

	// Components returns the number of segments.
	Components() int
}

// Viewer is the allocation-free read path some snapshots offer alongside
// Scan. Readers on hot paths (counter.FromSnapshot.Read, the bench
// harness) type-assert for it and fall back to Scan.
type Viewer interface {
	// ScanView atomically reads all segments like Scan but without copying:
	// the returned slice is implementation-owned and must never be
	// modified. How long it stays valid is implementation-defined — FArray
	// views are immutable forever, DoubleCollect views only until the same
	// process's next scan — so callers that outlive the current operation
	// must copy.
	ScanView(ctx primitive.Context) []int64
}

// CapacityError reports that a restricted-use implementation ran out of its
// pre-declared update budget.
type CapacityError struct {
	Object string
	Limit  int64
}

// Error implements error.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("snapshot: %s exhausted its restricted-use capacity of %d updates", e.Object, e.Limit)
}

// ValueError reports a segment value outside an implementation's encodable
// range.
type ValueError struct {
	Value int64
	Max   int64
}

// Error implements error.
func (e *ValueError) Error() string {
	return fmt.Sprintf("snapshot: value %d outside encodable range [0, %d]", e.Value, e.Max)
}

func checkID(ctx primitive.Context, n int) (int, error) {
	id := ctx.ID()
	if id < 0 || id >= n {
		return 0, fmt.Errorf("snapshot: process id %d out of range [0,%d)", id, n)
	}
	return id, nil
}
