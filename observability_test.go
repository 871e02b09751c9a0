package tradeoffs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestObservabilityEndToEnd drives instrumented objects concurrently and
// checks the scraped /metrics output reflects the workload.
func TestObservabilityEndToEnd(t *testing.T) {
	o := NewObservability()

	ctr, err := NewCounter(WithProcesses(4), WithObservability(o), WithName("hits"))
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMaxRegister(WithProcesses(2), WithObservability(o)) // auto-named maxreg#0
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := ctr.Handle(p)
			for i := 0; i < 50; i++ {
				if err := h.Increment(); err != nil {
					t.Error(err)
					return
				}
				h.Read()
			}
		}(p)
	}
	wg.Wait()
	if err := mr.Handle(0).Write(9); err != nil {
		t.Fatal(err)
	}
	if v := mr.Handle(1).Read(); v != 9 {
		t.Fatalf("Read = %d, want 9", v)
	}

	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`tradeoffs_op_steps_count{object="hits",op="increment"} 200`,
		`tradeoffs_op_steps_count{object="hits",op="read"} 200`,
		`tradeoffs_op_steps_count{object="maxreg#0",op="write"} 1`,
		`tradeoffs_op_steps_count{object="maxreg#0",op="read"} 1`,
		`tradeoffs_register_accesses_total{object="hits"`,
		`tradeoffs_op_latency_seconds_bucket{object="hits",op="increment"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// The counter value must be untouched by instrumentation.
	if got := ctr.Handle(0).Read(); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
}

func TestObservabilityDuplicateNameRejected(t *testing.T) {
	o := NewObservability()
	if _, err := NewCounter(WithObservability(o), WithName("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSnapshot(WithObservability(o), WithName("x")); err == nil {
		t.Fatal("duplicate object name accepted")
	}
}

func TestWithNameWithoutObservabilityIsHarmless(t *testing.T) {
	ctr, err := NewCounter(WithName("ignored"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctr.Handle(0).Increment(); err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityComposesWithStepCounting checks the instrumented wrapper
// preserves the step-counting facade feature it stacks under.
func TestObservabilityComposesWithStepCounting(t *testing.T) {
	o := NewObservability()
	ctr, err := NewCounter(WithProcesses(2), WithStepCounting(), WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	h := ctr.Handle(0)
	if err := h.Increment(); err != nil {
		t.Fatal(err)
	}
	if h.Steps() == 0 {
		t.Fatal("step counting lost under instrumentation")
	}

	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `tradeoffs_op_steps_count{object="counter#0",op="increment"} 1`) {
		t.Fatalf("instrumentation lost under step counting:\n%s", rec.Body.String())
	}
}

// TestObservabilityAutoNameSkipsTakenNames pins the naming rule both
// registries share: an explicitly named object may squat on a family#k
// name, and a later unnamed object must skip past it instead of failing
// construction (the rule FlightRecorder.tap always had).
func TestObservabilityAutoNameSkipsTakenNames(t *testing.T) {
	o := NewObservability()
	if _, err := NewCounter(WithObservability(o), WithName("counter#0")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCounter(WithObservability(o), WithName("counter#1")); err != nil {
		t.Fatal(err)
	}
	// Unnamed: the auto-assigner must skip the two squatted names and
	// land on counter#2, not error out.
	if _, err := NewCounter(WithObservability(o)); err != nil {
		t.Fatalf("unnamed counter construction failed against squatted auto-names: %v", err)
	}
	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, `object="counter#2"`) {
		t.Fatal("metrics lack counter#2: unnamed object did not skip to the next free auto-name")
	}
}

// TestRollbackReclaimsAutoName covers wire's rollback path: a
// construction whose flight tap fails must leave both registries exactly
// as before — including the auto-name index, so the next unnamed object
// reuses the freed family#k name in both.
func TestRollbackReclaimsAutoName(t *testing.T) {
	o := NewObservability()
	f1 := NewFlightRecorder(FlightConfig{SampleEvery: 1})
	f2 := NewFlightRecorder(FlightConfig{SampleEvery: 1})

	// Link o to f1.
	if _, err := NewCounter(WithObservability(o), WithFlightRecorder(f1), WithName("linked")); err != nil {
		t.Fatal(err)
	}
	// Rolled-back construction: obs registration succeeds (auto-name
	// counter#0), then the tap fails because o is already linked to f1.
	if _, err := NewCounter(WithObservability(o), WithFlightRecorder(f2)); err == nil {
		t.Fatal("construction against a second flight recorder succeeded, want error")
	}
	// The freed name must be reusable by the next unnamed object, in the
	// observability registry and the flight recorder alike.
	if _, err := NewCounter(WithObservability(o), WithFlightRecorder(f1)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	o.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `object="counter#0"`) {
		t.Fatal("metrics lack counter#0: rollback burned the auto-name index")
	}
	if strings.Contains(body, `object="counter#1"`) {
		t.Fatal("metrics show counter#1: the rolled-back registration left a gap")
	}
	var tapped []string
	for _, tap := range f1.Stats().Taps {
		tapped = append(tapped, tap.Object)
	}
	found := false
	for _, name := range tapped {
		if name == "counter#0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight taps %v lack counter#0: the two registries disagree on the reused name", tapped)
	}
}
