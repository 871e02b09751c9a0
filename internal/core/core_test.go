package core

import (
	"errors"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/restricteduse/tradeoffs/internal/b1tree"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

func newReg(t *testing.T, n int, bound int64) *MaxRegister {
	t.Helper()
	m, err := New(primitive.NewPool(), n, bound)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", n, bound, err)
	}
	return m
}

func TestSequentialSemantics(t *testing.T) {
	m := newReg(t, 4, 0)
	ctx := primitive.NewDirect(0)

	if got := m.ReadMax(ctx); got != 0 {
		t.Fatalf("initial ReadMax = %d", got)
	}
	seq := []struct{ write, want int64 }{
		{write: 2, want: 2},     // small value, TL leaf
		{write: 1, want: 2},     // obsolete
		{write: 3, want: 3},     // TL leaf (v < N=4)
		{write: 100, want: 100}, // TR leaf (v >= N)
		{write: 50, want: 100},
		{write: 1000, want: 1000},
		{write: 0, want: 1000},
	}
	for i, s := range seq {
		if err := m.WriteMax(ctx, s.write); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := m.ReadMax(ctx); got != s.want {
			t.Fatalf("step %d: ReadMax = %d, want %d", i, got, s.want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(primitive.NewPool(), 0, 0); err == nil {
		t.Fatal("New(0 processes) succeeded")
	}
	if _, err := New(primitive.NewPool(), 4, -1); err == nil {
		t.Fatal("New(negative bound) succeeded")
	}
	if _, err := New(primitive.NewPool(), 1, 0); err != nil {
		t.Fatalf("single-process register: %v", err)
	}
}

func TestRangeErrors(t *testing.T) {
	m := newReg(t, 4, 64)
	ctx := primitive.NewDirect(1)
	var rangeErr *maxreg.RangeError

	if err := m.WriteMax(ctx, -1); !errors.As(err, &rangeErr) {
		t.Fatalf("WriteMax(-1): %v", err)
	}
	if err := m.WriteMax(ctx, 64); !errors.As(err, &rangeErr) {
		t.Fatalf("WriteMax(64): %v", err)
	}
	if err := m.WriteMax(ctx, 63); err != nil {
		t.Fatalf("WriteMax(63): %v", err)
	}
	if got := m.ReadMax(ctx); got != 63 {
		t.Fatalf("ReadMax = %d", got)
	}
}

func TestProcessIDValidation(t *testing.T) {
	m := newReg(t, 4, 0)
	// Values >= N need the writer's TR leaf, so the id must be in range.
	if err := m.WriteMax(primitive.NewDirect(7), 100); err == nil {
		t.Fatal("WriteMax with out-of-range id succeeded")
	}
	if err := m.WriteMax(primitive.NewDirect(-1), 100); err == nil {
		t.Fatal("WriteMax with negative id succeeded")
	}
	// Small values never touch TR, so any id works (matches the paper:
	// TL leaves are not per-process).
	if err := m.WriteMax(primitive.NewDirect(99), 2); err != nil {
		t.Fatalf("small write with odd id: %v", err)
	}
}

func TestTightBoundDropsTR(t *testing.T) {
	// bound <= N: every value has a B1 leaf and TR is not built.
	tight := newReg(t, 8, 8)
	loose := newReg(t, 8, 0)
	if tight.NodeCount() >= loose.NodeCount() {
		t.Fatalf("tight bound did not shrink structure: %d vs %d",
			tight.NodeCount(), loose.NodeCount())
	}
	ctx := primitive.NewDirect(3)
	for v := int64(0); v < 8; v++ {
		if err := tight.WriteMax(ctx, v); err != nil {
			t.Fatalf("WriteMax(%d): %v", v, err)
		}
	}
	if got := tight.ReadMax(ctx); got != 7 {
		t.Fatalf("ReadMax = %d", got)
	}
}

func TestReadMaxIsOneStep(t *testing.T) {
	// Theorem 6: ReadMax has O(1) step complexity — here, exactly 1, at
	// every system size.
	for _, n := range []int{1, 2, 7, 64, 1024} {
		m := newReg(t, n, 0)
		ctx := primitive.NewCounting(primitive.NewDirect(0))
		if got := ctx.Measure(func() { m.ReadMax(ctx) }); got != 1 {
			t.Fatalf("n=%d: ReadMax took %d steps", n, got)
		}
	}
}

func TestWriteMaxStepBound(t *testing.T) {
	// Theorem 6: WriteMax(v) is O(min(log N, log v)). The implementation's
	// exact budget is 2 leaf steps + 8 per level of the leaf's depth.
	for _, n := range []int{2, 16, 256, 4096} {
		m := newReg(t, n, 0)
		for _, v := range []int64{0, 1, 2, 5, int64(n) - 1, int64(n), int64(n) * 1000} {
			if v < 0 {
				continue
			}
			ctx := primitive.NewCounting(primitive.NewDirect(0))
			if err := m.WriteMax(ctx, v); err != nil {
				t.Fatalf("n=%d WriteMax(%d): %v", n, v, err)
			}
			budget := int64(2 + 8*m.WriteDepth(0, v))
			if got := ctx.Steps(); got > budget {
				t.Fatalf("n=%d WriteMax(%d): %d steps > budget %d", n, v, got, budget)
			}
		}
	}
}

func TestWriteDepthMatchesPaperBounds(t *testing.T) {
	// Depth of the leaf for v < N is O(log v) (B1 property, +1 for the
	// root join); for v >= N it is O(log N).
	const n = 1 << 12
	m := newReg(t, n, 0)

	for _, v := range []int64{0, 1, 2, 3, 10, 100, 1000, n - 1} {
		d := m.WriteDepth(0, v)
		if bound := b1tree.B1DepthBound(int(v)) + 1; d > bound {
			t.Fatalf("WriteDepth(%d) = %d > %d", v, d, bound)
		}
	}
	// Large values: complete-tree depth + 1.
	trBound := bits.Len(uint(n-1)) + 2
	for _, v := range []int64{n, n + 1, n * 17, 1 << 40} {
		for _, id := range []int{0, 1, n / 2, n - 1} {
			if d := m.WriteDepth(id, v); d > trBound {
				t.Fatalf("WriteDepth(id=%d, v=%d) = %d > %d", id, v, d, trBound)
			}
		}
	}
}

func TestSmallWritesAreCheapRegardlessOfN(t *testing.T) {
	// The headline property: writing a small value costs O(log v) even in
	// a huge system. Compare v=3 at N=2^4 and N=2^14: identical budgets.
	small := newReg(t, 1<<4, 0)
	big := newReg(t, 1<<14, 0)

	stepsFor := func(m *MaxRegister) int64 {
		ctx := primitive.NewCounting(primitive.NewDirect(0))
		if err := m.WriteMax(ctx, 3); err != nil {
			t.Fatal(err)
		}
		return ctx.Steps()
	}
	a, b := stepsFor(small), stepsFor(big)
	if a != b {
		t.Fatalf("WriteMax(3) costs %d steps at N=16 but %d at N=16384", a, b)
	}
}

func TestObsoleteWriteIsOneStep(t *testing.T) {
	m := newReg(t, 4, 0)
	ctx := primitive.NewCounting(primitive.NewDirect(0))
	if err := m.WriteMax(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Re-writing 2 hits the leaf read, sees 2 <= 2, and stops: 1 step.
	got := ctx.Measure(func() {
		if err := m.WriteMax(ctx, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("obsolete WriteMax took %d steps, want 1", got)
	}
}

func TestRandomSequenceAgainstModel(t *testing.T) {
	m := newReg(t, 8, 0)
	rng := rand.New(rand.NewSource(7))
	var model int64
	for i := 0; i < 10000; i++ {
		ctx := primitive.NewDirect(rng.Intn(8))
		if rng.Intn(2) == 0 {
			v := rng.Int63n(1 << 20)
			if err := m.WriteMax(ctx, v); err != nil {
				t.Fatal(err)
			}
			if v > model {
				model = v
			}
		} else if got := m.ReadMax(ctx); got != model {
			t.Fatalf("op %d: ReadMax = %d, want %d", i, got, model)
		}
	}
}

func TestAgreesWithAAC(t *testing.T) {
	// Same random write sequence through Algorithm A and the AAC register
	// must yield identical read results at every point.
	const bound = 1 << 10
	algA := newReg(t, 4, bound)
	aac, err := maxreg.NewAAC(primitive.NewPool(), bound)
	if err != nil {
		t.Fatal(err)
	}
	ctx := primitive.NewDirect(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(bound)
		if err := algA.WriteMax(ctx, v); err != nil {
			t.Fatal(err)
		}
		if err := aac.WriteMax(ctx, v); err != nil {
			t.Fatal(err)
		}
		if a, b := algA.ReadMax(ctx), aac.ReadMax(ctx); a != b {
			t.Fatalf("op %d: core=%d aac=%d", i, a, b)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	const (
		n    = 8
		perG = 3000
	)
	m := newReg(t, n, 0)
	var (
		wg        sync.WaitGroup
		maxMu     sync.Mutex
		globalMax int64
	)
	for w := 0; w < n/2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			rng := rand.New(rand.NewSource(int64(id + 1)))
			localMax := int64(0)
			for i := 0; i < perG; i++ {
				v := rng.Int63n(1 << 16)
				if err := m.WriteMax(ctx, v); err != nil {
					t.Error(err)
					return
				}
				if v > localMax {
					localMax = v
				}
			}
			maxMu.Lock()
			if localMax > globalMax {
				globalMax = localMax
			}
			maxMu.Unlock()
		}(w)
	}
	for r := n / 2; r < n; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			prev := int64(-1)
			for i := 0; i < perG; i++ {
				got := m.ReadMax(ctx)
				if got < prev {
					t.Errorf("max regressed %d -> %d", prev, got)
					return
				}
				prev = got
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := m.ReadMax(primitive.NewDirect(0)); got != globalMax {
		t.Fatalf("final ReadMax = %d, want %d", got, globalMax)
	}
}

func TestConcurrentWritersSameSmallValueRange(t *testing.T) {
	// All writers hammer the same few TL leaves: maximum CAS contention on
	// the shared B1 spine. The final max must still be exact.
	const n = 8
	m := newReg(t, n, 0)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := primitive.NewDirect(id)
			for i := 0; i < 2000; i++ {
				if err := m.WriteMax(ctx, int64(i%7)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := m.ReadMax(primitive.NewDirect(0)); got != 6 {
		t.Fatalf("final ReadMax = %d, want 6", got)
	}
}

func TestMonotoneNodeValuesProperty(t *testing.T) {
	// Lemma 8: the sequence of values stored in every node is
	// non-decreasing. Sample node values between sequential operations.
	m := newReg(t, 4, 0)
	ctx := primitive.NewDirect(0)
	rng := rand.New(rand.NewSource(11))

	prev := make([]int64, len(m.values))
	for i := 0; i < 2000; i++ {
		if err := m.WriteMax(ctx, rng.Int63n(1<<12)); err != nil {
			t.Fatal(err)
		}
		for k, reg := range m.values {
			if v := reg.Load(); v < prev[k] {
				t.Fatalf("node %d decreased %d -> %d", k, prev[k], v)
			} else {
				prev[k] = v
			}
		}
	}
}

func TestQuickWriteReadConsistency(t *testing.T) {
	f := func(raw []uint32) bool {
		m, err := New(primitive.NewPool(), 3, 0)
		if err != nil {
			return false
		}
		ctx := primitive.NewDirect(0)
		var model int64
		for _, r := range raw {
			v := int64(r)
			if err := m.WriteMax(ctx, v); err != nil {
				return false
			}
			if v > model {
				model = v
			}
			if m.ReadMax(ctx) != model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocationsDoNotGrowWithN pins the cost the simulator pays on
// every rebuild of an explored execution: on a reset pool, building
// Algorithm A takes the same number of allocations whatever the tree's
// size.
func TestNewAllocationsDoNotGrowWithN(t *testing.T) {
	pool := primitive.NewPool()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			pool.Reset()
			if _, err := New(pool, n, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := allocs(2)
	for _, n := range []int{5, 64} {
		if got := allocs(n); got != want {
			t.Fatalf("New(n=%d) allocates %v times on a reset pool, New(n=2) %v", n, got, want)
		}
	}
	t.Logf("New allocates %v times on a reset pool", want)
}
