package primitive

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegisterZeroValue(t *testing.T) {
	var r Register
	if got := r.Load(); got != 0 {
		t.Fatalf("zero-value register holds %d, want 0", got)
	}
	r.Store(42)
	if got := r.Load(); got != 42 {
		t.Fatalf("after Store(42): %d", got)
	}
}

func TestRegisterCAS(t *testing.T) {
	var r Register
	r.Store(7)

	if r.CompareAndSwap(6, 9) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if got := r.Load(); got != 7 {
		t.Fatalf("failed CAS changed value to %d", got)
	}
	if !r.CompareAndSwap(7, 9) {
		t.Fatal("CAS with correct expected value failed")
	}
	if got := r.Load(); got != 9 {
		t.Fatalf("after successful CAS: %d, want 9", got)
	}
}

func TestPoolIdentifiers(t *testing.T) {
	p := NewPool()
	a := p.New("a", 1)
	b := p.New("b", 2)
	c := p.New("c", 3)

	if a.ID() != 0 || b.ID() != 1 || c.ID() != 2 {
		t.Fatalf("ids = %d,%d,%d; want 0,1,2", a.ID(), b.ID(), c.ID())
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if got := p.Get(1); got != b {
		t.Fatalf("Get(1) = %v, want %v", got, b)
	}
	regs := p.Registers()
	if len(regs) != 3 || regs[0] != a || regs[2] != c {
		t.Fatalf("Registers() out of order: %v", regs)
	}
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("initial values not honored")
	}
}

func TestPoolNewSlice(t *testing.T) {
	p := NewPool()
	regs := p.NewSlice("leaf", 4, -1)
	if len(regs) != 4 {
		t.Fatalf("len = %d, want 4", len(regs))
	}
	for i, r := range regs {
		if r.ID() != i {
			t.Fatalf("regs[%d].ID() = %d", i, r.ID())
		}
		if r.Load() != -1 {
			t.Fatalf("regs[%d] init = %d, want -1", i, r.Load())
		}
		want := fmt.Sprintf("leaf[%d]", i)
		if r.Name() != want {
			t.Fatalf("regs[%d].Name() = %q, want %q", i, r.Name(), want)
		}
	}
}

func TestPoolConcurrentAllocation(t *testing.T) {
	p := NewPool()
	const workers, perWorker = 8, 100

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.New("r", 0)
			}
		}()
	}
	wg.Wait()

	if p.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", p.Len(), workers*perWorker)
	}
	seen := make(map[int]bool, p.Len())
	for _, r := range p.Registers() {
		if seen[r.ID()] {
			t.Fatalf("duplicate register id %d", r.ID())
		}
		seen[r.ID()] = true
	}
}

func TestDirectContext(t *testing.T) {
	p := NewPool()
	r := p.New("r", 10)
	ctx := NewDirect(3)

	if ctx.ID() != 3 {
		t.Fatalf("ID = %d, want 3", ctx.ID())
	}
	if got := ctx.Read(r); got != 10 {
		t.Fatalf("Read = %d, want 10", got)
	}
	ctx.Write(r, 20)
	if got := ctx.Read(r); got != 20 {
		t.Fatalf("after Write: %d, want 20", got)
	}
	if ctx.CAS(r, 19, 30) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if !ctx.CAS(r, 20, 30) {
		t.Fatal("CAS with fresh expected failed")
	}
	if got := ctx.Read(r); got != 30 {
		t.Fatalf("after CAS: %d, want 30", got)
	}
}

func TestCountingSteps(t *testing.T) {
	p := NewPool()
	r := p.New("r", 0)
	ctx := NewCounting(NewDirect(0))

	ctx.Write(r, 1)
	ctx.Read(r)
	ctx.Read(r)
	ctx.CAS(r, 1, 2)

	if got := ctx.Steps(); got != 4 {
		t.Fatalf("Steps = %d, want 4", got)
	}
	reads, writes, cas := ctx.Breakdown()
	if reads != 2 || writes != 1 || cas != 1 {
		t.Fatalf("Breakdown = %d,%d,%d; want 2,1,1", reads, writes, cas)
	}

	ctx.Reset()
	if got := ctx.Steps(); got != 0 {
		t.Fatalf("Steps after Reset = %d", got)
	}
}

func TestCountingMeasure(t *testing.T) {
	p := NewPool()
	r := p.New("r", 0)
	ctx := NewCounting(NewDirect(0))

	ctx.Read(r) // pre-existing steps must not leak into Measure
	got := ctx.Measure(func() {
		ctx.Write(r, 5)
		ctx.Read(r)
	})
	if got != 2 {
		t.Fatalf("Measure = %d, want 2", got)
	}
	if total := ctx.Steps(); total != 3 {
		t.Fatalf("total Steps = %d, want 3", total)
	}
}

func TestCountingSemanticsMatchDirect(t *testing.T) {
	// The counting context must be observationally identical to Direct.
	pd, pc := NewPool(), NewPool()
	rd, rc := pd.New("r", 0), pc.New("r", 0)
	d := NewDirect(1)
	c := NewCounting(NewDirect(1))

	ops := []func(ctx Context, r *Register) int64{
		func(ctx Context, r *Register) int64 { ctx.Write(r, 3); return 0 },
		func(ctx Context, r *Register) int64 { return ctx.Read(r) },
		func(ctx Context, r *Register) int64 {
			if ctx.CAS(r, 3, 8) {
				return 1
			}
			return 0
		},
		func(ctx Context, r *Register) int64 { return ctx.Read(r) },
		func(ctx Context, r *Register) int64 {
			if ctx.CAS(r, 3, 9) {
				return 1
			}
			return 0
		},
	}
	for i, op := range ops {
		if gd, gc := op(d, rd), op(c, rc); gd != gc {
			t.Fatalf("op %d: direct=%d counting=%d", i, gd, gc)
		}
	}
	if rd.Load() != rc.Load() {
		t.Fatalf("final values diverge: %d vs %d", rd.Load(), rc.Load())
	}
}

func TestCASSuccessIffExpectedMatches(t *testing.T) {
	f := func(init, old, new int64) bool {
		var r Register
		r.Store(init)
		ok := r.CompareAndSwap(old, new)
		if init == old {
			return ok && r.Load() == new
		}
		return !ok && r.Load() == init
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterString(t *testing.T) {
	p := NewPool()
	r := p.New("root", 0)
	if got := r.String(); got != "root#0" {
		t.Fatalf("String = %q", got)
	}
	var anon Register
	if got := anon.String(); got != "reg#0" {
		t.Fatalf("anonymous String = %q", got)
	}
}

func TestRegisterConcurrentCASIncrement(t *testing.T) {
	// CAS-loop increments from many goroutines must not lose updates.
	var r Register
	const workers, perWorker = 8, 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					cur := r.Load()
					if r.CompareAndSwap(cur, cur+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Load(); got != workers*perWorker {
		t.Fatalf("final = %d, want %d", got, workers*perWorker)
	}
}

func TestPaddedPoolIdentifiersAndSemantics(t *testing.T) {
	// A padded pool must be observationally identical to a plain pool:
	// dense ids in allocation order, honored initial values, names,
	// working Get/Registers — only the memory layout differs. That holds
	// for New and for NewNear, which places every third register on the
	// line of the one before it.
	p := NewPadded()
	if !p.Padded() {
		t.Fatal("NewPadded().Padded() = false")
	}
	if NewPool().Padded() {
		t.Fatal("NewPool().Padded() = true")
	}
	const n = 3*arenaChunk + 5 // span several arena chunks
	for _, near := range []bool{false, true} {
		p := NewPadded()
		regs := make([]*Register, n)
		for i := range regs {
			name := fmt.Sprintf("r%d", i)
			if near && i%3 == 2 {
				regs[i] = p.NewNear(regs[i-1], name, int64(i))
			} else {
				regs[i] = p.New(name, int64(i))
			}
		}
		if p.Len() != n {
			t.Fatalf("near=%v: Len = %d, want %d", near, p.Len(), n)
		}
		for i, r := range regs {
			if r.ID() != i {
				t.Fatalf("near=%v: regs[%d].ID() = %d", near, i, r.ID())
			}
			if r.Load() != int64(i) {
				t.Fatalf("near=%v: regs[%d] init = %d, want %d", near, i, r.Load(), i)
			}
			if want := fmt.Sprintf("r%d", i); r.Name() != want {
				t.Fatalf("near=%v: regs[%d].Name() = %q, want %q", near, i, r.Name(), want)
			}
			if p.Get(i) != r {
				t.Fatalf("near=%v: Get(%d) did not return the allocated register", near, i)
			}
		}
		all := p.Registers()
		if len(all) != n || all[0] != regs[0] || all[n-1] != regs[n-1] {
			t.Fatalf("near=%v: Registers() out of order", near)
		}
	}
}

func TestRegisterSize(t *testing.T) {
	// Four registers to a line, so the f-array root and both of its
	// children fit in one.
	if got := unsafe.Sizeof(Register{}); got != 16 {
		t.Fatalf("Sizeof(Register{}) = %d, want 16", got)
	}
}

// lineOf returns the cache line holding r's value word.
func lineOf(r *Register) uintptr { return uintptr(unsafe.Pointer(&r.v)) / CacheLineSize }

func TestNewNearSharesLine(t *testing.T) {
	p := NewPadded()
	owner := p.New("owner", 1)
	other := p.New("other", 2)
	near := []*Register{p.NewNear(owner, "a", 3), p.NewNear(owner, "b", 4), p.NewNear(other, "c", 5)}
	for i, r := range near[:2] {
		if lineOf(r) != lineOf(owner) {
			t.Fatalf("near[%d] is not on its owner's line", i)
		}
	}
	if lineOf(near[2]) != lineOf(other) || lineOf(other) == lineOf(owner) {
		t.Fatal("NewNear(other) did not share other's own line")
	}
	// A line holds four registers: the next placement near owner (or near
	// any register of its line) takes the last slot, then falls back.
	last := p.NewNear(near[0], "d", 6)
	if lineOf(last) != lineOf(owner) {
		t.Fatal("fourth register did not fill the owner's line")
	}
	spill := p.NewNear(owner, "e", 7)
	if lineOf(spill) == lineOf(owner) || lineOf(spill) == lineOf(other) {
		t.Fatal("NewNear on a full line did not fall back to a fresh line")
	}
	for i, r := range p.Registers() {
		if r.ID() != i || r.Load() != int64(i+1) {
			t.Fatalf("register %d: id %d value %d", i, r.ID(), r.Load())
		}
	}
}

func TestNewNearFallsBack(t *testing.T) {
	// Unpadded: a plain allocation with the usual id.
	p := NewPool()
	r := p.New("r", 0)
	if got := p.NewNear(r, "s", 9); got.ID() != 1 || got.Load() != 9 || got == r {
		t.Fatalf("unpadded NewNear = %v holding %d", got, got.Load())
	}
	// A register from another pool, or nil, gets a fresh line.
	q := NewPadded()
	base := q.New("base", 0)
	for _, near := range []*Register{r, nil} {
		got := q.NewNear(near, "x", 0)
		if lineOf(got) == lineOf(base) {
			t.Fatalf("NewNear(%v) shared a line it does not own", near)
		}
	}
}

func TestNewNearReissuesAfterReset(t *testing.T) {
	p := NewPadded()
	build := func() []*Register {
		root := p.New("root", 10)
		mid := p.New("mid", 11)
		return []*Register{root, mid, p.NewNear(root, "child", 12)}
	}
	first := build()
	first[2].Store(99)
	p.Reset()
	second := build()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("register %d moved after Reset", i)
		}
		if second[i].Load() != int64(10+i) {
			t.Fatalf("register %d holds %d after Reset, want %d", i, second[i].Load(), 10+i)
		}
	}
	if lineOf(second[2]) != lineOf(second[0]) {
		t.Fatal("reissued near register left its owner's line")
	}
}

func TestPaddedPoolCacheLineSeparation(t *testing.T) {
	// Any two registers from a padded pool must keep their hot atomic
	// word on distinct 64-byte lines.
	p := NewPadded()
	const n = 2 * arenaChunk
	regs := make([]*Register, n)
	for i := range regs {
		regs[i] = p.New("r", 0)
	}
	lines := make(map[uintptr]int, n)
	for i, r := range regs {
		line := uintptr(unsafe.Pointer(&r.v)) / CacheLineSize
		if prev, dup := lines[line]; dup {
			t.Fatalf("registers %d and %d share cache line %#x", prev, i, line)
		}
		lines[line] = i
	}
}

func TestPaddedPoolConcurrentAllocation(t *testing.T) {
	p := NewPadded()
	const workers, perWorker = 8, 3 * arenaChunk

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.New("r", 0)
			}
		}()
	}
	wg.Wait()

	if p.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", p.Len(), workers*perWorker)
	}
	seen := make(map[int]bool, p.Len())
	for _, r := range p.Registers() {
		if seen[r.ID()] {
			t.Fatalf("duplicate register id %d", r.ID())
		}
		seen[r.ID()] = true
	}
}

func TestPoolGetRejectsBadID(t *testing.T) {
	p := NewPool()
	p.New("only", 0)
	if got := p.Get(0); got == nil {
		t.Fatal("Get(0) returned nil for an allocated register")
	}
	for _, id := range []int{-1, 1, 100} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Get(%d) did not panic", id)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "no such register") {
					t.Fatalf("Get(%d) panic = %v, want a descriptive message", id, r)
				}
			}()
			p.Get(id)
		}()
	}
}
