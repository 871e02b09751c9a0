package bench

import (
	"math"
	"math/bits"
	"strings"
	"testing"
)

// smallCfg keeps the suite to a fraction of a second in tests.
var smallCfg = ThroughputConfig{Procs: 4, OpsPerProc: 200, Seed: 7}

func TestRunThroughputProducesValidReport(t *testing.T) {
	rep, err := RunThroughput(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 7 || rep.Procs != 4 || rep.OpsPerProc != 200 {
		t.Fatalf("config not echoed: %+v", rep)
	}
	want := []string{
		"counter/farray/increment/unpadded",
		"counter/farray/increment/padded",
		"counter/farray/add/batched-w8",
		"counter/cas/increment",
		"counter/aac/increment",
		"counter/snapshot/increment",
		"maxreg/algorithmA/writemax",
		"maxreg/aac/writemax",
		"maxreg/cas/writemax",
		"snapshot/farray/update",
	}
	got := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		got[r.Name] = r
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("missing workload %q", name)
		}
	}
}

func TestThroughputStepsAreDeterministic(t *testing.T) {
	// One process runs every workload without contention, so no CAS ever
	// fails or retries and every row's steps/op is bit-identical across
	// runs.
	solo := ThroughputConfig{Procs: 1, OpsPerProc: 200, Seed: 7}
	a, err := RunThroughput(solo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunThroughput(solo)
	if err != nil {
		t.Fatal(err)
	}
	resB := indexResults(b)
	for name, ra := range indexResults(a) {
		rb, ok := resB[name]
		if !ok {
			t.Fatalf("second run missing %q", name)
		}
		if ra.Ops != rb.Ops || ra.StepsPerOp != rb.StepsPerOp {
			t.Errorf("%s: ops %d vs %d, steps/op %g vs %g across solo runs", name, ra.Ops, rb.Ops, ra.StepsPerOp, rb.StepsPerOp)
		}
	}
}

func TestThroughputFArrayStepAccounting(t *testing.T) {
	// Under contention an f-array refresh stops at its first successful
	// CAS, so how many attempts a level takes depends on the interleaving.
	// Each attempt is still exactly 4 steps (read the node, read both
	// children, CAS), between one and two per level, so every run must
	// satisfy steps = leafSteps + 4*CASAttempts and
	// depth <= CASAttempts/update <= 2*depth.
	rep, err := RunThroughput(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	procs, ops := int64(smallCfg.Procs), int64(smallCfg.OpsPerProc)
	depth := int64(bits.Len(uint(procs - 1))) // every leaf's: Procs is a power of two
	const window = 8
	checked := 0
	for _, r := range rep.Results {
		// leaf is the steps an update takes outside the refresh: the
		// counter's slot read and write, or the snapshot's leaf write.
		updates, leaf := r.Ops, int64(2)
		switch {
		case r.Name == "counter/farray/add/batched-w8":
			updates = procs * ((ops + window - 1) / window)
		case strings.HasPrefix(r.Name, "counter/farray/"):
		case r.Name == "counter/snapshot/increment", r.Name == "snapshot/farray/update":
			leaf = 1
		default:
			continue
		}
		checked++
		steps := int64(math.Round(r.StepsPerOp * float64(r.Ops)))
		if want := leaf*updates + 4*r.CASAttempts; steps != want {
			t.Errorf("%s: %d steps, want %d leaf steps + 4*%d CAS attempts = %d", r.Name, steps, leaf*updates, r.CASAttempts, want)
		}
		if r.CASAttempts < depth*updates || r.CASAttempts > 2*depth*updates {
			t.Errorf("%s: %d CAS attempts over %d updates, want %d..%d per update", r.Name, r.CASAttempts, updates, depth, 2*depth)
		}
	}
	if checked != 11 {
		t.Errorf("checked %d f-array rows, want 11", checked)
	}
}

func TestThroughputBatchedAddAmortizes(t *testing.T) {
	// The acceptance bar for WithBatching: at window 8, the amortized
	// shared-memory cost per increment must be well below the unbatched
	// f-array increment (each coalesced propagation is one leaf write +
	// one O(log N) refresh for 8 logical increments).
	rep, err := RunThroughput(ThroughputConfig{Procs: 4, OpsPerProc: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := indexResults(rep)
	plain := res["counter/farray/increment/padded"]
	batched := res["counter/farray/add/batched-w8"]
	if batched.StepsPerOp >= plain.StepsPerOp/2 {
		t.Fatalf("batched add steps/op = %.2f, want < half of unbatched %.2f",
			batched.StepsPerOp, plain.StepsPerOp)
	}
}

func TestValidateRejectsBadReports(t *testing.T) {
	good, err := RunThroughput(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(r *Report){
		"wrong schema":   func(r *Report) { r.Schema = "tradeoffs/bench/v0" },
		"no results":     func(r *Report) { r.Results = nil },
		"unnamed result": func(r *Report) { r.Results[0].Name = "" },
		"duplicate name": func(r *Report) { r.Results[1].Name = r.Results[0].Name },
		"zero ops":       func(r *Report) { r.Results[0].Ops = 0 },
		"negative ns/op": func(r *Report) { r.Results[0].NsPerOp = -1 },
		"failures > attempts": func(r *Report) {
			r.Results[0].CASAttempts = 1
			r.Results[0].CASFailures = 2
		},
		"rate out of range": func(r *Report) { r.Results[0].CASFailureRate = 1.5 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			bad := *good
			bad.Results = append([]Result(nil), good.Results...)
			mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("Validate accepted a corrupted report")
			}
		})
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected the pristine report: %v", err)
	}
}

func indexResults(rep *Report) map[string]Result {
	m := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		m[r.Name] = r
	}
	return m
}
