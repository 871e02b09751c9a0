package snapshot

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/b1tree"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// FArray is the constant-Scan snapshot: a Jayanti-style f-array (PODC
// 2002) whose aggregate is view concatenation. Leaves hold raw segment
// values; every internal node holds (the word-arena offset of) the
// concatenated view of its subtree, refreshed on each update's
// leaf-to-root path until one CAS succeeds (at most twice per level, as in
// internal/farray), so the root always holds a linearizable full view.
//
//	Scan:   1 step (read the root's view offset; dereference is local).
//	Update: O(log N) steps (leaf write + 4 per level uncontended, 8 at
//	        worst).
//
// Corollary 1 of the paper proves this update cost is asymptotically
// optimal for any snapshot with O(1) — indeed any o(log N)-competitive —
// Scan from read/write/CAS. The E2 experiment measures both sides.
//
// The object is restricted-use: Update admits at most maxUpdates calls in
// total, counted on entry. The count, not the view arena, enforces the
// limit; the arena's word budget is the memory bound, sized for every
// admitted update taking its worst case (two views of every node on its
// leaf-to-root path, a node's view as wide as its subtree).
type FArray struct {
	n       int
	tree    *b1tree.Tree
	regs    []*primitive.Register
	width   []int // width[k]: leaves under tree.Nodes[k], so its view's word count
	views   *words
	updates *quota
}

var _ Snapshot = (*FArray)(nil)
var _ Viewer = (*FArray)(nil)

// NewFArray builds a constant-Scan snapshot with n >= 1 segments
// supporting at most maxUpdates Update operations in total.
func NewFArray(pool *primitive.Pool, n int, maxUpdates int64) (*FArray, error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: need n >= 1 segments, got %d", n)
	}
	if maxUpdates < 0 {
		return nil, fmt.Errorf("snapshot: negative update limit %d", maxUpdates)
	}
	tree, err := b1tree.NewComplete(n)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	// Nodes are in preorder: a reverse pass sees children before parents,
	// a forward pass parents before children.
	width := make([]int, len(tree.Nodes))
	for k := len(tree.Nodes) - 1; k >= 0; k-- {
		if node := tree.Nodes[k]; node.IsLeaf() {
			width[k] = 1
		} else {
			width[k] = width[node.Left.Index] + width[node.Right.Index]
		}
	}
	// pathWords[k]: words an update from below node k reserves above it.
	var initial, perUpdate int64
	pathWords := make([]int64, len(tree.Nodes))
	for k, node := range tree.Nodes {
		if p := node.Parent; p != nil {
			pathWords[k] = pathWords[p.Index] + 2*int64(width[p.Index])
		}
		if node.IsLeaf() {
			perUpdate = max(perUpdate, pathWords[k])
		} else {
			initial += int64(width[k])
		}
	}
	s := &FArray{
		n:       n,
		tree:    tree,
		width:   width,
		views:   &words{limit: wordBudget(initial, maxUpdates, perUpdate)},
		updates: &quota{limit: maxUpdates},
	}

	s.regs = make([]*primitive.Register, len(tree.Nodes))
	for k, node := range tree.Nodes {
		if node.IsLeaf() {
			s.regs[k] = pool.New("fsnap.leaf", 0)
			continue
		}
		off, _, _ := s.views.reserve(width[k]) // the budget includes initial
		s.regs[k] = pool.New("fsnap.node", off)
	}
	return s, nil
}

// Components implements Snapshot.
func (s *FArray) Components() int { return s.n }

// Depth returns the complete tree's leaf depth — the "logn" symbol of
// the certified Update bound (steps <= 8logn+1, 4logn+1 uncontended).
func (s *FArray) Depth() int { return s.tree.LeafDepth(0) }

// Scan implements Snapshot in exactly one shared-memory step. The returned
// slice is a fresh copy (caller-owned, per the Snapshot contract); ScanView
// reads the same cut without copying.
//
//tradeoffvet:bound steps<=1 reads<=1
func (s *FArray) Scan(ctx primitive.Context) []int64 {
	view := s.ScanView(ctx)
	out := make([]int64, len(view))
	copy(out, view)
	return out
}

// ScanView implements Viewer in the same single shared-memory step as Scan,
// returning the immutable arena view directly: zero-copy and, for trees
// with at least two leaves, allocation-free. Arena views are never
// modified after publication, so the slice may be retained — but must
// never be written. Its cap equals its len, so appending to it copies.
// (The degenerate single-leaf tree has no arena view and synthesizes a
// one-element slice.)
//
//tradeoffvet:bound steps<=1 reads<=1
func (s *FArray) ScanView(ctx primitive.Context) []int64 {
	root := s.tree.Root
	if root.IsLeaf() {
		return []int64{ctx.Read(s.regs[root.Index])}
	}
	return s.views.view(ctx.Read(s.regs[root.Index]), s.n)
}

// ScanInto is Scan appending into dst (reset to length zero): with a
// caller-reused dst of capacity >= Components(), the whole read is
// allocation-free even for single-leaf trees.
//
//tradeoffvet:bound steps<=1 reads<=1
func (s *FArray) ScanInto(ctx primitive.Context, dst []int64) []int64 {
	dst = dst[:0]
	root := s.tree.Root
	if root.IsLeaf() {
		return append(dst, ctx.Read(s.regs[root.Index]))
	}
	return append(dst, s.views.view(ctx.Read(s.regs[root.Index]), s.n)...)
}

// Update implements Snapshot in O(log N) steps: one leaf write plus, per
// level, read-merge-CAS refreshes until one CAS succeeds (at most two),
// each merge reading both children into a freshly reserved view. Past the
// update limit it returns a *CapacityError without taking a step.
//
//tradeoffvet:bound steps<=8logn+1 reads<=6logn writes<=1 cas<=2logn
//tradeoffvet:bound steps<=4logn+1 uncontended
func (s *FArray) Update(ctx primitive.Context, v int64) error {
	id, err := checkID(ctx, s.n)
	if err != nil {
		return err
	}
	if !s.updates.take() {
		return &CapacityError{Object: "farray snapshot", Limit: s.updates.limit}
	}
	leaf := s.tree.Leaves[id]
	ctx.Write(s.regs[leaf.Index], v)

	//tradeoffvet:loopbound logn leaf-to-root walk: one iteration per tree level
	for node := leaf.Parent; node != nil; node = node.Parent {
		cell := s.regs[node.Index]
		left := s.width[node.Left.Index]
		for attempt := 0; attempt < 2; attempt++ {
			oldOff := ctx.Read(cell)
			// The word budget covers every admitted update's worst case,
			// so this reservation cannot fail.
			newOff, merged, _ := s.views.reserve(s.width[node.Index])
			s.readChild(ctx, merged[:left], node.Left)
			s.readChild(ctx, merged[left:], node.Right)
			if ctx.CAS(cell, oldOff, newOff) {
				break
			}
		}
	}
	return nil
}

// readChild copies the child's current view (or leaf value) into dst in
// one shared-memory step.
func (s *FArray) readChild(ctx primitive.Context, dst []int64, child *b1tree.Node) {
	if child.IsLeaf() {
		dst[0] = ctx.Read(s.regs[child.Index])
		return
	}
	copy(dst, s.views.view(ctx.Read(s.regs[child.Index]), len(dst)))
}
