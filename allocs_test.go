//go:build !race

package tradeoffs

import "testing"

// TestHandleAllocs pins each handle operation's heap allocations under
// each stage combination. The pipeline itself must allocate nothing: the
// only allocations are Scan's result vector and, with the flight recorder
// on, the record's copy of it and that copy's boxed slice header. Skipped
// under -race, whose instrumentation allocates on its own.
func TestHandleAllocs(t *testing.T) {
	configs := []struct {
		name string
		opts func() []Option
		scan float64
	}{
		{"plain", func() []Option { return nil }, 1},
		{"counting", func() []Option { return []Option{WithStepCounting()} }, 1},
		{"obs", func() []Option { return []Option{WithObservability(NewObservability())} }, 1},
		{"obs+flight", func() []Option {
			return []Option{WithObservability(NewObservability()), WithFlightRecorder(NewFlightRecorder(FlightConfig{SampleEvery: 1}))}
		}, 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			base := append([]Option{WithProcesses(2)}, cfg.opts()...)
			with := func(extra ...Option) []Option { return append(append([]Option(nil), base...), extra...) }
			reg, err := NewMaxRegister(with()...)
			if err != nil {
				t.Fatal(err)
			}
			ctr, err := NewCounter(with()...)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewCounter(with(WithBatching(8))...)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(with(WithLimit(1 << 20))...)
			if err != nil {
				t.Fatal(err)
			}
			cons, err := NewConsensus(with()...)
			if err != nil {
				t.Fatal(err)
			}
			rh, ch, bh, sh, ph := reg.Handle(0), ctr.Handle(0), batch.Handle(0), snap.Handle(0), cons.Handle(0)
			var v int64
			ops := []struct {
				name string
				op   func()
				want float64
			}{
				{"MaxRegister.Read", func() { rh.Read() }, 0},
				{"MaxRegister.Write", func() { v++; _ = rh.Write(v) }, 0},
				{"Counter.Read", func() { ch.Read() }, 0},
				{"Counter.Increment", func() { _ = ch.Increment() }, 0},
				{"Counter.Add", func() { _ = ch.Add(3) }, 0},
				{"Counter.Flush", func() { _ = bh.Add(2); _ = bh.Flush() }, 0},
				{"Snapshot.Update", func() { v++; _ = sh.Update(v) }, 0},
				{"Snapshot.Scan", func() { sh.Scan() }, cfg.scan},
				{"Consensus.Propose", func() { _, _ = ph.Propose(5) }, 0},
			}
			for _, op := range ops {
				if got := testing.AllocsPerRun(200, op.op); got != op.want {
					t.Errorf("%s: %v allocs per op, want %v", op.name, got, op.want)
				}
			}
		})
	}
}
