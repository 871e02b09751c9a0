package tradeoffs

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMaxRegisterDefaults(t *testing.T) {
	reg, err := NewMaxRegister()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Processes() != 8 || reg.Bound() != 0 {
		t.Fatalf("defaults: %d processes, bound %d", reg.Processes(), reg.Bound())
	}
	h := reg.Handle(0)
	if err := h.Write(42); err != nil {
		t.Fatal(err)
	}
	if err := h.Write(7); err != nil {
		t.Fatal(err)
	}
	if got := h.Read(); got != 42 {
		t.Fatalf("Read = %d", got)
	}
}

func TestMaxRegisterImplementations(t *testing.T) {
	impls := []struct {
		name string
		opts []Option
	}{
		{name: "algorithm-a", opts: []Option{WithMaxRegisterImpl(MaxRegisterAlgorithmA)}},
		{name: "aac", opts: []Option{WithMaxRegisterImpl(MaxRegisterAAC), WithBound(1 << 10)}},
		{name: "cas", opts: []Option{WithMaxRegisterImpl(MaxRegisterCAS)}},
		{name: "unbounded-aac", opts: []Option{WithMaxRegisterImpl(MaxRegisterUnboundedAAC)}},
	}
	for _, tt := range impls {
		t.Run(tt.name, func(t *testing.T) {
			reg, err := NewMaxRegister(append(tt.opts, WithProcesses(4))...)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < 4; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := reg.Handle(id)
					for v := int64(0); v < 100; v++ {
						if err := h.Write(v*4 + int64(id)); err != nil {
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
			if got := reg.Handle(0).Read(); got != 399 {
				t.Fatalf("final Read = %d, want 399", got)
			}
		})
	}
}

func TestMaxRegisterOptionValidation(t *testing.T) {
	if _, err := NewMaxRegister(WithMaxRegisterImpl(MaxRegisterAAC)); !errors.Is(err, ErrBoundRequired) {
		t.Fatalf("AAC without bound: %v", err)
	}
	if _, err := NewMaxRegister(WithProcesses(0)); err == nil {
		t.Fatal("0 processes accepted")
	}
	if _, err := NewMaxRegister(WithMaxRegisterImpl(MaxRegisterImpl(99))); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestCounterImplementations(t *testing.T) {
	impls := []struct {
		name string
		opts []Option
	}{
		{name: "farray", opts: []Option{WithCounterImpl(CounterFArray)}},
		{name: "aac", opts: []Option{WithCounterImpl(CounterAAC), WithLimit(10000)}},
		{name: "cas", opts: []Option{WithCounterImpl(CounterCAS)}},
		{name: "snapshot", opts: []Option{WithCounterImpl(CounterSnapshot), WithLimit(10000)}},
	}
	for _, tt := range impls {
		t.Run(tt.name, func(t *testing.T) {
			ctr, err := NewCounter(append(tt.opts, WithProcesses(4))...)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < 4; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					h := ctr.Handle(id)
					for i := 0; i < 500; i++ {
						if err := h.Increment(); err != nil {
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
			if got := ctr.Handle(0).Read(); got != 2000 {
				t.Fatalf("final Read = %d, want 2000", got)
			}
		})
	}
}

func TestCounterOptionValidation(t *testing.T) {
	if _, err := NewCounter(WithCounterImpl(CounterAAC)); !errors.Is(err, ErrLimitRequired) {
		t.Fatalf("AAC without limit: %v", err)
	}
	if _, err := NewCounter(WithCounterImpl(CounterSnapshot)); !errors.Is(err, ErrLimitRequired) {
		t.Fatalf("snapshot counter without limit: %v", err)
	}
	if _, err := NewCounter(WithCounterImpl(CounterImpl(99))); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestSnapshotImplementations(t *testing.T) {
	impls := []struct {
		name string
		opts []Option
	}{
		{name: "farray", opts: []Option{WithSnapshotImpl(SnapshotFArray), WithLimit(10000)}},
		{name: "afek", opts: []Option{WithSnapshotImpl(SnapshotAfek), WithLimit(10000)}},
		{name: "doublecollect", opts: []Option{WithSnapshotImpl(SnapshotDoubleCollect)}},
	}
	for _, tt := range impls {
		t.Run(tt.name, func(t *testing.T) {
			snap, err := NewSnapshot(append(tt.opts, WithProcesses(3))...)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Processes() != 3 {
				t.Fatalf("Processes = %d", snap.Processes())
			}
			if err := snap.Handle(1).Update(9); err != nil {
				t.Fatal(err)
			}
			got := snap.Handle(2).Scan()
			if len(got) != 3 || got[1] != 9 || got[0] != 0 {
				t.Fatalf("Scan = %v", got)
			}
		})
	}
}

// TestHugeLimitCostsNothingUpFront builds every snapshot-backed object with
// the largest declarable limit. Their view arenas grow with use, so
// construction must be quick and leave a working object, not size storage
// for the limit or overflow computing it.
func TestHugeLimitCostsNothingUpFront(t *testing.T) {
	type object struct {
		update func(int64) error
		read   func() int64
		want   int64 // read after updates 1, 2, 3
	}
	builds := map[string]func() (object, error){
		"snapshot/farray": func() (object, error) {
			s, err := NewSnapshot(WithSnapshotImpl(SnapshotFArray), WithLimit(math.MaxInt64))
			if err != nil {
				return object{}, err
			}
			return object{s.Handle(1).Update, func() int64 { return s.Handle(0).Scan()[1] }, 3}, nil
		},
		"snapshot/afek": func() (object, error) {
			s, err := NewSnapshot(WithSnapshotImpl(SnapshotAfek), WithLimit(math.MaxInt64))
			if err != nil {
				return object{}, err
			}
			return object{s.Handle(1).Update, func() int64 { return s.Handle(0).Scan()[1] }, 3}, nil
		},
		"counter/snapshot": func() (object, error) {
			c, err := NewCounter(WithCounterImpl(CounterSnapshot), WithLimit(math.MaxInt64))
			if err != nil {
				return object{}, err
			}
			return object{c.Handle(1).Add, c.Handle(0).Read, 6}, nil
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, build := range builds {
		start := time.Now()
		obj, err := build()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: construction took %v", name, elapsed)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := int64(1); v <= 3; v++ {
			if err := obj.update(v); err != nil {
				t.Fatalf("%s: update %d: %v", name, v, err)
			}
		}
		if got := obj.read(); got != obj.want {
			t.Errorf("%s: read %d after updates 1, 2, 3, want %d", name, got, obj.want)
		}
	}
	runtime.ReadMemStats(&after)
	if after.HeapSys > before.HeapSys+64<<20 {
		t.Errorf("heap reserved %d MiB for three small objects", (after.HeapSys-before.HeapSys)>>20)
	}
}

func TestSnapshotOptionValidation(t *testing.T) {
	if _, err := NewSnapshot(); !errors.Is(err, ErrLimitRequired) {
		t.Fatalf("default f-array snapshot without limit: %v", err)
	}
	if _, err := NewSnapshot(WithSnapshotImpl(SnapshotImpl(99))); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestStepCounting(t *testing.T) {
	reg, err := NewMaxRegister(WithProcesses(2), WithStepCounting())
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Handle(0)
	h.Read()
	if got := h.Steps(); got != 1 {
		t.Fatalf("Steps after one Read = %d (Algorithm A reads are 1 step)", got)
	}
	if err := h.Write(100); err != nil {
		t.Fatal(err)
	}
	if got := h.Steps(); got <= 1 {
		t.Fatalf("Steps after Write = %d", got)
	}

	// Without counting, Steps reports 0.
	plain, err := NewMaxRegister(WithProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	ph := plain.Handle(0)
	ph.Read()
	if got := ph.Steps(); got != 0 {
		t.Fatalf("uncounted Steps = %d", got)
	}
}

func TestTradeoffHeadline(t *testing.T) {
	// The library's reason to exist, visible through the public API:
	// Algorithm A reads in 1 step where AAC pays log M, and AAC writes in
	// log M steps where Algorithm A pays more only up to a constant.
	const bound = 1 << 10
	algA, err := NewMaxRegister(WithProcesses(4), WithBound(bound), WithStepCounting())
	if err != nil {
		t.Fatal(err)
	}
	aac, err := NewMaxRegister(WithProcesses(4), WithBound(bound),
		WithMaxRegisterImpl(MaxRegisterAAC), WithStepCounting())
	if err != nil {
		t.Fatal(err)
	}

	ha, hb := algA.Handle(0), aac.Handle(0)
	if err := ha.Write(bound - 1); err != nil {
		t.Fatal(err)
	}
	if err := hb.Write(bound - 1); err != nil {
		t.Fatal(err)
	}

	readSteps := func(h *MaxRegisterHandle) int64 {
		before := h.Steps()
		h.Read()
		return h.Steps() - before
	}
	a, b := readSteps(ha), readSteps(hb)
	if a != 1 {
		t.Fatalf("Algorithm A read = %d steps", a)
	}
	if b <= a {
		t.Fatalf("AAC read = %d steps; expected > 1", b)
	}
}
