// Package b1tree builds the binary tree shapes used by Algorithm A of
// Hendler & Khait (PODC 2014, Section 5):
//
//   - B1 trees (Bentley & Yao, "An almost optimal algorithm for unbounded
//     searching", 1975): an unbalanced binary tree over leaves 0..n-1 in
//     which leaf i sits at depth O(log i). Algorithm A uses a B1 tree as its
//     left subtree so that WriteMax(v) with v < N costs O(log v) steps.
//   - Complete (balanced) binary trees, used as Algorithm A's right subtree
//     so that WriteMax(v) with v >= N costs O(log N) steps.
//
// The package deals only in tree *shape*: nodes carry parent/child links and
// stable indices, and callers attach whatever per-node payload they need
// (internal/core attaches one shared register per node). A tree's nodes are
// created in preorder from one slab, so building one costs a fixed number of
// allocations whatever its size: the simulator rebuilds trees thousands of
// times per second while it explores schedules.
package b1tree

import (
	"fmt"
	"math/bits"
)

// Node is one vertex of a tree. Leaf nodes have Leaf >= 0 and nil children;
// internal nodes have Leaf == -1 and both children set (all trees built by
// this package are full binary trees).
type Node struct {
	Parent *Node
	Left   *Node
	Right  *Node

	// Leaf is the leaf's index in [0, n), or -1 for internal nodes.
	Leaf int

	// Index is the node's position in Tree.Nodes: a dense identifier
	// callers use to attach payloads (e.g. one register per node).
	Index int

	// Depth is the number of edges from the root (root has Depth 0).
	Depth int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Leaf >= 0 }

// Tree is a full binary tree with parent links.
type Tree struct {
	Root *Node

	// Leaves[i] is the leaf with Leaf == i.
	Leaves []*Node

	// Nodes lists every node in preorder; Nodes[k].Index == k.
	Nodes []*Node

	// slab holds the nodes this tree created itself, in preorder: all of
	// them for NewComplete and NewB1, only the root for Join.
	slab []Node
}

// newTree returns an empty full binary tree over leaves leaves: Nodes and
// Leaves share one backing array, and the slab has room for the created
// nodes the tree makes itself.
func newTree(leaves, created int) *Tree {
	nodes := 2*leaves - 1
	ptrs := make([]*Node, nodes+leaves)
	return &Tree{Nodes: ptrs[:0:nodes], Leaves: ptrs[nodes:], slab: make([]Node, created)}
}

// node creates the tree's next node in preorder.
func (t *Tree) node(leaf, depth int) *Node {
	k := len(t.Nodes)
	n := &t.slab[k]
	n.Leaf, n.Index, n.Depth = leaf, k, depth
	t.Nodes = append(t.Nodes, n)
	return n
}

// NewComplete builds a balanced binary tree with n >= 1 leaves. Every leaf
// is at depth ceil(log2 n) or ceil(log2 n) - 1.
func NewComplete(n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("b1tree: complete tree needs n >= 1 leaves, got %d", n)
	}

	t := newTree(n, 2*n-1)
	t.Root = t.buildComplete(0, n, 0)
	return t, nil
}

// NewB1 builds a Bentley-Yao B1 tree with n >= 1 leaves: leaf i is at depth
// O(log i) (leaf 0 and leaf 1 at O(1) depth). Concretely, leaves are grouped
// into blocks {0}, {1}, [2,4), [4,8), ... and hung off a right-leaning
// spine, each block as a balanced subtree; leaf i in block b(i) = O(log i)
// sits at spine depth b(i) plus balanced-subtree depth O(log i), for a total
// of at most 2*floor(log2 i) + 2 edges (verified by TestB1DepthBound).
func NewB1(n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("b1tree: B1 tree needs n >= 1 leaves, got %d", n)
	}

	t := newTree(n, 2*n-1)

	// Block k covers leaves [start_k, end_k):
	//   block 0 = {0}, block 1 = {1}, block k = [2^(k-1), 2^k) for k >= 2,
	// truncated at n.
	// Right-leaning spine: spine node k, at depth k, has the balanced tree
	// over block k as its left child; the last spine node takes the final
	// block as its right child. Creating each spine node before its block
	// keeps the nodes in preorder.
	var spine *Node // the spine node the next block or spine node hangs from
	start, depth := 0, 0
	for end := blockEnd(start); end < n; end = blockEnd(start) {
		next := t.node(-1, depth)
		t.hang(spine, next)
		next.Left = t.buildComplete(start, end, depth+1)
		next.Left.Parent = next
		spine, start = next, end
		depth++
	}
	t.hang(spine, t.buildComplete(start, n, depth))
	return t, nil
}

// blockEnd returns the end of the B1 block starting at leaf start, before
// truncation at the leaf count.
func blockEnd(start int) int {
	if start < 2 {
		return start + 1
	}
	return 2 * start
}

// hang makes child the right child of parent, or the root when parent is
// nil.
func (t *Tree) hang(parent, child *Node) {
	if parent == nil {
		t.Root = child
		return
	}
	parent.Right = child
	child.Parent = parent
}

// Join combines two trees under a fresh root (left becomes the root's left
// child). The input trees are absorbed: their nodes are re-indexed into the
// combined tree, and the combined tree's leaf i is left's leaf i for
// i < len(left.Leaves), then right's leaves.
func Join(left, right *Tree) *Tree {
	t := newTree(len(left.Leaves)+len(right.Leaves), 1) // the other nodes stay in their slabs
	t.Root = t.node(-1, 0)
	t.Root.Left, t.Root.Right = left.Root, right.Root
	left.Root.Parent, right.Root.Parent = t.Root, t.Root

	// The preorder of the joined tree is the root, then left's preorder,
	// then right's: shift every index past the root and every depth by
	// the new edge, and make leaf indices dense in the combined tree.
	for _, sub := range []*Tree{left, right} {
		for _, n := range sub.Nodes {
			n.Index = len(t.Nodes)
			n.Depth++
			t.Nodes = append(t.Nodes, n)
		}
	}
	copy(t.Leaves, left.Leaves)
	copy(t.Leaves[len(left.Leaves):], right.Leaves)
	for i, leaf := range t.Leaves {
		leaf.Leaf = i
	}
	return t
}

// LeafDepth returns the depth (edges from root) of leaf i.
func (t *Tree) LeafDepth(i int) int { return t.Leaves[i].Depth }

// PathToRoot returns the nodes from leaf i to the root, inclusive.
func (t *Tree) PathToRoot(i int) []*Node {
	var path []*Node
	for n := t.Leaves[i]; n != nil; n = n.Parent {
		path = append(path, n)
	}
	return path
}

// buildComplete builds a balanced subtree over leaves [start, end) whose
// root sits at depth, and registers its leaves in t.Leaves.
func (t *Tree) buildComplete(start, end, depth int) *Node {
	if end-start == 1 {
		leaf := t.node(start, depth)
		t.Leaves[start] = leaf
		return leaf
	}
	n := t.node(-1, depth)
	mid := start + (end-start+1)/2
	n.Left = t.buildComplete(start, mid, depth+1)
	n.Right = t.buildComplete(mid, end, depth+1)
	n.Left.Parent = n
	n.Right.Parent = n
	return n
}

// B1DepthBound returns the proven upper bound on the depth of leaf i in a
// B1 tree: 2*floor(log2 i) + 2 for i >= 1, and 1 for i == 0. Tests assert
// NewB1 respects it for every leaf.
func B1DepthBound(i int) int {
	if i == 0 {
		return 1
	}
	return 2 * bits.Len(uint(i)) // == 2*(floor(log2 i)+1) = 2*floor(log2 i)+2
}
