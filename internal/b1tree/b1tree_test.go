package b1tree

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// validate checks structural invariants shared by every tree this package
// builds: full binary shape, consistent parent links, dense node indices,
// correct depths, and a bijection between Leaves and leaf nodes.
func validate(t *testing.T, tr *Tree, wantLeaves int) {
	t.Helper()

	if tr.Root == nil {
		t.Fatal("nil root")
	}
	if tr.Root.Parent != nil {
		t.Fatal("root has a parent")
	}
	if len(tr.Leaves) != wantLeaves {
		t.Fatalf("len(Leaves) = %d, want %d", len(tr.Leaves), wantLeaves)
	}

	seenLeaves := 0
	for k, n := range tr.Nodes {
		if n.Index != k {
			t.Fatalf("Nodes[%d].Index = %d", k, n.Index)
		}
		switch {
		case n.IsLeaf():
			if n.Left != nil || n.Right != nil {
				t.Fatalf("leaf %d has children", n.Leaf)
			}
			if tr.Leaves[n.Leaf] != n {
				t.Fatalf("Leaves[%d] does not point back at leaf node", n.Leaf)
			}
			seenLeaves++
		default:
			if n.Left == nil || n.Right == nil {
				t.Fatalf("internal node %d is not full", n.Index)
			}
			if n.Left.Parent != n || n.Right.Parent != n {
				t.Fatalf("child of node %d has wrong parent", n.Index)
			}
			if n.Left.Depth != n.Depth+1 || n.Right.Depth != n.Depth+1 {
				t.Fatalf("child depth of node %d inconsistent", n.Index)
			}
		}
	}
	if seenLeaves != wantLeaves {
		t.Fatalf("found %d leaf nodes, want %d", seenLeaves, wantLeaves)
	}
	// A full binary tree with L leaves has exactly 2L-1 nodes.
	if want := 2*wantLeaves - 1; len(tr.Nodes) != want {
		t.Fatalf("node count = %d, want %d", len(tr.Nodes), want)
	}
}

func TestCompleteShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		tr, err := NewComplete(n)
		if err != nil {
			t.Fatalf("NewComplete(%d): %v", n, err)
		}
		validate(t, tr, n)

		wantDepth := bits.Len(uint(n - 1)) // ceil(log2 n)
		if n == 1 {
			wantDepth = 0
		}
		for i := 0; i < n; i++ {
			d := tr.LeafDepth(i)
			if d > wantDepth || d < wantDepth-1 {
				t.Fatalf("n=%d leaf %d depth %d, want %d or %d-1", n, i, d, wantDepth, wantDepth)
			}
		}
	}
}

func TestCompleteRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewComplete(n); err == nil {
			t.Fatalf("NewComplete(%d) succeeded", n)
		}
		if _, err := NewB1(n); err == nil {
			t.Fatalf("NewB1(%d) succeeded", n)
		}
	}
}

func TestB1Shape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 17, 64, 100, 1000} {
		tr, err := NewB1(n)
		if err != nil {
			t.Fatalf("NewB1(%d): %v", n, err)
		}
		validate(t, tr, n)
	}
}

func TestB1DepthBound(t *testing.T) {
	// The defining property of the B1 tree: leaf i at depth O(log i),
	// concretely <= B1DepthBound(i) for every leaf, at every tree size.
	for _, n := range []int{1, 2, 3, 5, 16, 17, 100, 1024, 4097} {
		tr, err := NewB1(n)
		if err != nil {
			t.Fatalf("NewB1(%d): %v", n, err)
		}
		for i := 0; i < n; i++ {
			if d, bound := tr.LeafDepth(i), B1DepthBound(i); d > bound {
				t.Fatalf("n=%d: leaf %d at depth %d > bound %d", n, i, d, bound)
			}
		}
	}
}

func TestB1EarlyLeavesAreShallow(t *testing.T) {
	// Small values must be cheap regardless of how large the tree is:
	// that is the whole point of using a B1 tree in Algorithm A.
	tr, err := NewB1(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.LeafDepth(0); d > 1 {
		t.Fatalf("leaf 0 depth %d, want <= 1", d)
	}
	if d := tr.LeafDepth(1); d > 2 {
		t.Fatalf("leaf 1 depth %d, want <= 2", d)
	}
	if d := tr.LeafDepth(7); d > B1DepthBound(7) {
		t.Fatalf("leaf 7 depth %d > %d", d, B1DepthBound(7))
	}
	// And the deepest leaves are still only logarithmic.
	if d := tr.LeafDepth(1<<16 - 1); d > 2*17 {
		t.Fatalf("last leaf depth %d, want O(log n)", d)
	}
}

func TestPathToRoot(t *testing.T) {
	tr, err := NewB1(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		path := tr.PathToRoot(i)
		if path[0] != tr.Leaves[i] {
			t.Fatalf("leaf %d: path does not start at leaf", i)
		}
		if path[len(path)-1] != tr.Root {
			t.Fatalf("leaf %d: path does not end at root", i)
		}
		if len(path) != tr.LeafDepth(i)+1 {
			t.Fatalf("leaf %d: path length %d, depth %d", i, len(path), tr.LeafDepth(i))
		}
		for j := 0; j+1 < len(path); j++ {
			if path[j].Parent != path[j+1] {
				t.Fatalf("leaf %d: path link broken at %d", i, j)
			}
		}
	}
}

func TestJoin(t *testing.T) {
	left, err := NewB1(5)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewComplete(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := Join(left, right)
	validate(t, tr, 9)

	// Left leaves come first and keep their order; right leaves follow.
	for i := 0; i < 9; i++ {
		if tr.Leaves[i].Leaf != i {
			t.Fatalf("leaf %d has Leaf=%d after Join", i, tr.Leaves[i].Leaf)
		}
	}
	if tr.Root.Left != left.Root || tr.Root.Right != right.Root {
		t.Fatal("Join root children wrong")
	}
	// Depths shifted by one.
	if tr.Leaves[0].Depth != left.Leaves[0].Depth {
		// Join recomputed depths relative to the new root,
		// so the old subtree depth plus one edge.
		t.Logf("left leaf depth now %d", tr.Leaves[0].Depth)
	}
	if tr.Root.Depth != 0 {
		t.Fatalf("joined root depth = %d", tr.Root.Depth)
	}
}

func TestB1DepthBoundProperty(t *testing.T) {
	tr, err := NewB1(2048)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		i := int(raw) % 2048
		return tr.LeafDepth(i) <= B1DepthBound(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteLeafOrderIsLeftToRight(t *testing.T) {
	tr, err := NewComplete(6)
	if err != nil {
		t.Fatal(err)
	}
	// In-order traversal must visit leaves 0..5 in order.
	var order []int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			order = append(order, n.Leaf)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
	for i, leaf := range order {
		if leaf != i {
			t.Fatalf("in-order leaf sequence %v", order)
		}
	}
}
