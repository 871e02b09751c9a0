package farray

import (
	"errors"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

func newF(t *testing.T, n int, agg Aggregate) *FArray {
	t.Helper()
	f, err := New(primitive.NewPool(), n, agg)
	if err != nil {
		t.Fatalf("New(%d, %v): %v", n, agg, err)
	}
	return f
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(primitive.NewPool(), 0, Sum); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(primitive.NewPool(), 4, Aggregate(0)); err == nil {
		t.Fatal("New with invalid aggregate succeeded")
	}
	if _, err := New(primitive.NewPool(), 1, Max); err != nil {
		t.Fatalf("single-slot array: %v", err)
	}
}

func TestSumSequential(t *testing.T) {
	f := newF(t, 4, Sum)
	ctxs := make([]primitive.Context, 4)
	for i := range ctxs {
		ctxs[i] = primitive.NewDirect(i)
	}

	if got := f.Read(ctxs[0]); got != 0 {
		t.Fatalf("initial Read = %d", got)
	}
	if err := f.Update(ctxs[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Update(ctxs[2], 3); err != nil {
		t.Fatal(err)
	}
	if got := f.Read(ctxs[1]); got != 8 {
		t.Fatalf("Read = %d, want 8", got)
	}
	if v, err := f.Add(ctxs[2], 4); err != nil || v != 7 {
		t.Fatalf("Add = %d, %v; want 7, nil", v, err)
	}
	if got := f.Read(ctxs[3]); got != 12 {
		t.Fatalf("Read = %d, want 12", got)
	}
	if v, err := f.ReadSlot(ctxs[0], 2); err != nil || v != 7 {
		t.Fatalf("ReadSlot(2) = %d, %v", v, err)
	}
}

func TestMaxSequential(t *testing.T) {
	f := newF(t, 3, Max)
	ctx0 := primitive.NewDirect(0)
	ctx2 := primitive.NewDirect(2)

	if err := f.Update(ctx0, 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Update(ctx2, 7); err != nil {
		t.Fatal(err)
	}
	if got := f.Read(ctx0); got != 10 {
		t.Fatalf("Read = %d, want 10", got)
	}
	if err := f.Update(ctx2, 99); err != nil {
		t.Fatal(err)
	}
	if got := f.Read(ctx0); got != 99 {
		t.Fatalf("Read = %d, want 99", got)
	}
}

func TestMonotonicityEnforced(t *testing.T) {
	f := newF(t, 2, Sum)
	ctx := primitive.NewDirect(0)
	if err := f.Update(ctx, 5); err != nil {
		t.Fatal(err)
	}
	var mono *MonotonicityError
	if err := f.Update(ctx, 4); !errors.As(err, &mono) {
		t.Fatalf("decreasing update err = %v", err)
	}
	if mono.Slot != 0 || mono.Current != 5 || mono.Proposed != 4 {
		t.Fatalf("MonotonicityError fields: %+v", mono)
	}
	if mono.Error() == "" {
		t.Fatal("empty error message")
	}
	// Same value is allowed (no-op refresh).
	if err := f.Update(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add(ctx, -1); err == nil {
		t.Fatal("negative Add succeeded")
	}
}

func TestIDValidation(t *testing.T) {
	f := newF(t, 2, Sum)
	if err := f.Update(primitive.NewDirect(2), 1); err == nil {
		t.Fatal("out-of-range id Update succeeded")
	}
	if err := f.Update(primitive.NewDirect(-1), 1); err == nil {
		t.Fatal("negative id Update succeeded")
	}
	if _, err := f.Add(primitive.NewDirect(5), 1); err == nil {
		t.Fatal("out-of-range id Add succeeded")
	}
	if _, err := f.ReadSlot(primitive.NewDirect(0), 9); err == nil {
		t.Fatal("out-of-range ReadSlot succeeded")
	}
}

func TestReadIsOneStep(t *testing.T) {
	for _, n := range []int{1, 2, 13, 256} {
		f := newF(t, n, Sum)
		ctx := primitive.NewCounting(primitive.NewDirect(0))
		if got := ctx.Measure(func() { f.Read(ctx) }); got != 1 {
			t.Fatalf("n=%d: Read took %d steps", n, got)
		}
	}
}

func TestUpdateStepBound(t *testing.T) {
	// Update is O(log n): 2 leaf steps + at most 8 per level.
	for _, n := range []int{1, 2, 3, 8, 9, 64, 500} {
		f := newF(t, n, Sum)
		depth := int64(bits.Len(uint(n - 1))) // ceil(log2 n)
		budget := 2 + 8*(depth)
		for id := 0; id < n; id += 1 + n/7 {
			ctx := primitive.NewCounting(primitive.NewDirect(id))
			if _, err := f.Add(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if got := ctx.Steps(); got > budget {
				t.Fatalf("n=%d id=%d: Add took %d steps > %d", n, id, got, budget)
			}
		}
	}
}

// TestSoloUpdateCostExact pins the uncontended cost: solo, the first CAS
// at every level succeeds, so Add and Update take one leaf read, one leaf
// write and 4 steps per level, from every leaf.
func TestSoloUpdateCostExact(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 64} {
		f := newF(t, n, Sum)
		for id, leaf := range f.tree.Leaves {
			want := int64(2 + 4*leaf.Depth)
			ctx := primitive.NewCounting(primitive.NewDirect(id))
			var err error
			if got := ctx.Measure(func() { _, err = f.Add(ctx, 1) }); err != nil || got != want {
				t.Fatalf("n=%d id=%d: Add took %d steps (err %v), want %d", n, id, got, err, want)
			}
			if got := ctx.Measure(func() { err = f.Update(ctx, 5) }); err != nil || got != want {
				t.Fatalf("n=%d id=%d: Update took %d steps (err %v), want %d", n, id, got, err, want)
			}
		}
	}
}

func TestAggregateString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" {
		t.Fatal("Aggregate.String broken")
	}
	if Aggregate(9).String() == "" {
		t.Fatal("unknown aggregate String empty")
	}
}

func TestConcurrentSumExact(t *testing.T) {
	// After all updaters finish, the root must hold the exact total.
	const n, perG = 8, 5000
	f := newF(t, n, Sum)

	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			for i := 0; i < perG; i++ {
				if _, err := f.Add(ctx, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := f.Read(primitive.NewDirect(0)); got != n*perG {
		t.Fatalf("final Read = %d, want %d", got, n*perG)
	}
}

func TestConcurrentReadsNeverExceedTruth(t *testing.T) {
	// A Sum f-array read must never exceed the number of Add calls started,
	// and never trail the number completed before the read began by the
	// time it returns... the cheap safe check: reads are non-decreasing and
	// bounded by the eventual total.
	const n, perG = 4, 3000
	f := newF(t, n+1, Sum)

	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			for i := 0; i < perG; i++ {
				if _, err := f.Add(ctx, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := primitive.NewDirect(n)
		prev := int64(0)
		for i := 0; i < perG; i++ {
			got := f.Read(ctx)
			if got < prev {
				t.Errorf("sum regressed %d -> %d", prev, got)
				return
			}
			if got > n*perG {
				t.Errorf("sum overshot: %d > %d", got, n*perG)
				return
			}
			prev = got
		}
	}()
	wg.Wait()
}

func TestConcurrentMaxExact(t *testing.T) {
	const n = 6
	f := newF(t, n, Max)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			rng := rand.New(rand.NewSource(int64(id)))
			cur := int64(0)
			for i := 0; i < 2000; i++ {
				cur += rng.Int63n(5)
				if err := f.Update(ctx, cur); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Final root = max over final slots.
	ctx := primitive.NewDirect(0)
	want := int64(0)
	for i := 0; i < n; i++ {
		v, err := f.ReadSlot(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if v > want {
			want = v
		}
	}
	if got := f.Read(ctx); got != want {
		t.Fatalf("final Read = %d, want %d", got, want)
	}
}

func TestQuickSumMatchesModel(t *testing.T) {
	f := func(deltas []uint8) bool {
		fa, err := New(primitive.NewPool(), 3, Sum)
		if err != nil {
			return false
		}
		var model int64
		for k, d := range deltas {
			ctx := primitive.NewDirect(k % 3)
			if _, err := fa.Add(ctx, int64(d)); err != nil {
				return false
			}
			model += int64(d)
			if fa.Read(ctx) != model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPaddedRootSharesLineWithChildren(t *testing.T) {
	line := func(r *primitive.Register) uintptr {
		return uintptr(unsafe.Pointer(r)) / primitive.CacheLineSize
	}
	for _, n := range []int{2, 3, 5, 64} {
		f, err := New(primitive.NewPadded(), n, Sum)
		if err != nil {
			t.Fatal(err)
		}
		root := f.tree.Root
		rootLine := line(f.values[root.Index])
		if line(f.values[root.Left.Index]) != rootLine || line(f.values[root.Right.Index]) != rootLine {
			t.Fatalf("n=%d: the root's children are not on the root's line", n)
		}
		owner := make(map[uintptr]int)
		for k, r := range f.values {
			if node := f.tree.Nodes[k]; node == root || node.Parent == root {
				continue
			}
			l := line(r)
			if l == rootLine {
				t.Fatalf("n=%d: node %d shares the root's line", n, k)
			}
			if prev, dup := owner[l]; dup {
				t.Fatalf("n=%d: nodes %d and %d share a line", n, prev, k)
			}
			owner[l] = k
		}
	}
}
