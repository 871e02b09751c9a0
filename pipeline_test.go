package tradeoffs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// badReadMaxTable declares core.MaxRegister's ReadMax bound over a symbol
// no parameter binds, so instantiating it fails after the table parses.
func badReadMaxTable() []byte {
	return []byte(`{
  "schema": "tradeoffs/bounds/v1",
  "rows": [
    {"file": "bad.go", "line": 1, "func": "core.MaxRegister.ReadMax",
     "family": "core.MaxRegister", "op": "ReadMax", "mode": "worst-case",
     "class": "steps", "declared": "zz", "derived": "1", "ok": true}
  ]
}`)
}

// TestFailedConstructionLeavesNoRegistration: a construction that fails on
// its bound table must leave neither the Observability nor the flight
// recorder holding the object, so a retry under the same name succeeds.
func TestFailedConstructionLeavesNoRegistration(t *testing.T) {
	o := NewObservability()
	fr := NewFlightRecorder(FlightConfig{SampleEvery: 1})
	opts := []Option{WithObservability(o), WithFlightRecorder(fr), WithName("reg"), WithProcesses(2)}

	_, err := NewMaxRegister(append(opts, WithBoundTableJSON(badReadMaxTable()))...)
	if err == nil || !strings.Contains(err.Error(), `no value for symbol "zz"`) {
		t.Fatalf("construction with an unbindable bound: err = %v", err)
	}
	metrics := func() string {
		rec := httptest.NewRecorder()
		o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	if strings.Contains(metrics(), `object="reg"`) {
		t.Fatal("/metrics serves the object whose construction failed")
	}
	if taps := fr.Stats().Taps; len(taps) != 0 {
		t.Fatalf("flight recorder taps the object whose construction failed: %+v", taps)
	}

	if _, err := NewMaxRegister(opts...); err != nil {
		t.Fatalf("retry after the failed construction: %v", err)
	}
	if !strings.Contains(metrics(), `object="reg"`) {
		t.Fatal("/metrics lacks the retried object")
	}
	if taps := fr.Stats().Taps; len(taps) != 1 || taps[0].Object != "reg" {
		t.Fatalf("flight taps after retry: %+v", taps)
	}
}

// matrixObjects is one configuration's set of objects, one handle each.
type matrixObjects struct {
	reg   *MaxRegisterHandle
	ctr   *CounterHandle // CAS counter, WithLimit(2)
	ctr1  *CounterHandle // the same counter's process 1
	batch *CounterHandle // CAS counter, WithLimit(3), WithBatching(8)
	snap  *SnapshotHandle
	cons  *ConsensusHandle
}

// matrixStep is one handle call and what every stage must see of it.
type matrixStep struct {
	name string
	obj  string // object name in obs and flight output
	// handle is the handle whose Steps the call moves, if not obj's.
	handle string
	op     string // obs op the call scores, "" if none
	call   func(m *matrixObjects) error
	fail   bool
	// recorded is the flight records the call adds; obs counts failed
	// calls, the flight recorder drops them.
	recorded int64
}

var matrixSteps = []matrixStep{
	{name: "Read", obj: "reg", op: "read", call: func(m *matrixObjects) error { m.reg.Read(); return nil }, recorded: 1},
	{name: "Write", obj: "reg", op: "write", call: func(m *matrixObjects) error { return m.reg.Write(5) }, recorded: 1},
	{name: "Write/out-of-bound", obj: "reg", op: "write", call: func(m *matrixObjects) error { return m.reg.Write(16) }, fail: true},
	{name: "Read/after", obj: "reg", op: "read", call: func(m *matrixObjects) error { m.reg.Read(); return nil }, recorded: 1},
	{name: "Increment", obj: "ctr", op: "increment", call: func(m *matrixObjects) error { return m.ctr.Increment() }, recorded: 1},
	{name: "Add", obj: "ctr", op: "add", call: func(m *matrixObjects) error { return m.ctr.Add(1) }, recorded: 1},
	{name: "Increment/past-limit", obj: "ctr", op: "increment", call: func(m *matrixObjects) error { return m.ctr.Increment() }, fail: true},
	{name: "Read", obj: "ctr", op: "read", call: func(m *matrixObjects) error { m.ctr.Read(); return nil }, recorded: 1},
	// Add(0) is process 0's last call: had it opened a flight record it
	// never closes, process 1's later record would stay pending behind
	// its in-flight stamp.
	{name: "Add(0)", obj: "ctr", op: "add", call: func(m *matrixObjects) error { return m.ctr.Add(0) }},
	{name: "Read/process-1", obj: "ctr", handle: "ctr1", op: "read", call: func(m *matrixObjects) error { m.ctr1.Read(); return nil }, recorded: 1},
	{name: "Add/buffered", obj: "batch", call: func(m *matrixObjects) error { return m.batch.Add(2) }},
	{name: "Flush", obj: "batch", op: "add", call: func(m *matrixObjects) error { return m.batch.Flush() }, recorded: 1},
	{name: "Add/buffered-again", obj: "batch", call: func(m *matrixObjects) error { return m.batch.Add(2) }},
	{name: "Flush/past-limit", obj: "batch", op: "add", call: func(m *matrixObjects) error { return m.batch.Flush() }, fail: true},
	{name: "Update", obj: "snap", op: "update", call: func(m *matrixObjects) error { return m.snap.Update(7) }, recorded: 1},
	{name: "Scan", obj: "snap", op: "scan", call: func(m *matrixObjects) error { m.snap.Scan(); return nil }, recorded: 1},
	{name: "Update/second", obj: "snap", op: "update", call: func(m *matrixObjects) error { return m.snap.Update(8) }, recorded: 1},
	{name: "Update/past-limit", obj: "snap", op: "update", call: func(m *matrixObjects) error { return m.snap.Update(9) }, fail: true},
	{name: "Scan/after", obj: "snap", op: "scan", call: func(m *matrixObjects) error { m.snap.Scan(); return nil }, recorded: 1},
	{name: "Propose", obj: "cons", op: "propose", call: func(m *matrixObjects) error { _, err := m.cons.Propose(3); return err }, recorded: 1},
}

// TestStageMatrix drives every handle operation, failure paths included,
// under each combination of stages and checks that each stage sees each
// call exactly as specified: step counts agree wherever counting is on,
// obs scores every call once, and the flight recorder records exactly
// the successful ones.
func TestStageMatrix(t *testing.T) {
	configs := []struct {
		name                  string
		counting, obs, flight bool
	}{
		{name: "plain"},
		{name: "counting", counting: true},
		{name: "obs", obs: true},
		{name: "obs+counting", obs: true, counting: true},
		{name: "flight", flight: true},
		{name: "obs+flight", obs: true, flight: true},
	}
	var countedSteps []int64 // per step, from the first counting config
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var o *Observability
			var fr *FlightRecorder
			base := []Option{WithProcesses(2)}
			if cfg.counting {
				base = append(base, WithStepCounting())
			}
			if cfg.obs {
				o = NewObservability()
				base = append(base, WithObservability(o))
			}
			if cfg.flight {
				fr = NewFlightRecorder(FlightConfig{SampleEvery: 1})
				base = append(base, WithFlightRecorder(fr))
			}
			with := func(extra ...Option) []Option { return append(append([]Option(nil), base...), extra...) }
			reg, err := NewMaxRegister(with(WithName("reg"), WithBound(16))...)
			if err != nil {
				t.Fatal(err)
			}
			ctr, err := NewCounter(with(WithName("ctr"), WithCounterImpl(CounterCAS), WithLimit(2))...)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewCounter(with(WithName("batch"), WithCounterImpl(CounterCAS), WithLimit(3), WithBatching(8))...)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(with(WithName("snap"), WithLimit(2))...)
			if err != nil {
				t.Fatal(err)
			}
			cons, err := NewConsensus(with(WithName("cons"))...)
			if err != nil {
				t.Fatal(err)
			}
			m := &matrixObjects{reg: reg.Handle(0), ctr: ctr.Handle(0), ctr1: ctr.Handle(1), batch: batch.Handle(0), snap: snap.Handle(0), cons: cons.Handle(0)}
			steppers := map[string]interface{ Steps() int64 }{"reg": m.reg, "ctr": m.ctr, "ctr1": m.ctr1, "batch": m.batch, "snap": m.snap, "cons": m.cons}
			if fr != nil {
				fr.Start()
				defer fr.Stop()
			}

			opCount := func(obj, op string) int64 {
				for _, ns := range o.gather() {
					if ns.Object != obj {
						continue
					}
					for _, s := range ns.Stats.Ops {
						if s.Name == op {
							return s.Steps.Count
						}
					}
				}
				return 0
			}
			recorded := func(obj string) int64 {
				fr.Sync()
				for _, tap := range fr.Stats().Taps {
					if tap.Object == obj {
						return tap.Recorded
					}
				}
				t.Fatalf("no flight tap %q", obj)
				return 0
			}

			var steps []int64
			for _, st := range matrixSteps {
				var opBefore, recBefore int64
				if o != nil && st.op != "" {
					opBefore = opCount(st.obj, st.op)
				}
				if fr != nil {
					recBefore = recorded(st.obj)
				}
				stepper := steppers[st.obj]
				if st.handle != "" {
					stepper = steppers[st.handle]
				}
				stepsBefore := stepper.Steps()

				if err := st.call(m); (err != nil) != st.fail {
					t.Fatalf("%s %s: err = %v, want failure %v", st.obj, st.name, err, st.fail)
				}

				delta := stepper.Steps() - stepsBefore
				if !cfg.counting && delta != 0 {
					t.Fatalf("%s %s: Steps moved by %d without WithStepCounting", st.obj, st.name, delta)
				}
				steps = append(steps, delta)
				if o != nil && st.op != "" {
					if got := opCount(st.obj, st.op) - opBefore; got != 1 {
						t.Errorf("%s %s: obs op %q count rose by %d, want 1", st.obj, st.name, st.op, got)
					}
				}
				if fr != nil {
					if got := recorded(st.obj) - recBefore; got != st.recorded {
						t.Errorf("%s %s: flight recorded rose by %d, want %d", st.obj, st.name, got, st.recorded)
					}
				}
			}

			if cfg.counting {
				if countedSteps == nil {
					countedSteps = steps
				}
				for i, st := range matrixSteps {
					if steps[i] != countedSteps[i] {
						t.Errorf("%s %s: %d steps, %d under the first counting config", st.obj, st.name, steps[i], countedSteps[i])
					}
				}
			}
			if fr != nil {
				fr.Sync()
				stats := fr.Stats()
				if stats.Pending != 0 || stats.Violations != 0 {
					t.Fatalf("after Sync: pending %d, violations %d, want 0 and 0", stats.Pending, stats.Violations)
				}
			}
		})
	}
}
