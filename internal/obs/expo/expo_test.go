package expo

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// goldenStats builds a fixed []obs.NamedStats by hand, so the exposition is
// byte-for-byte deterministic (a live Collector's latency histogram is not).
func goldenStats() []obs.NamedStats {
	var steps obs.HistogramSnapshot
	steps.Buckets[0] = 1 // one op took 0 steps
	steps.Buckets[2] = 2 // two ops took 2-3 steps
	steps.Count = 3
	steps.Sum = 6

	var latency obs.HistogramSnapshot
	latency.Buckets[1] = 3 // three ops took 1 ns
	latency.Count = 3
	latency.Sum = 3

	return []obs.NamedStats{
		{
			Object: "served",
			Stats: obs.Stats{
				Reads:        10,
				Writes:       5,
				CASAttempts:  7,
				CASFailures:  2,
				Ops:          []obs.OpStats{{Name: "increment", Steps: steps, LatencyNS: latency}},
				Registers:    []obs.RegisterStats{{ID: 0, Name: "root", Accesses: 12}},
				HeatOverflow: 1,
			},
		},
		// Second object: zero stats plus a label value needing escaping.
		{Object: `q"x`},
	}
}

const golden = `# HELP tradeoffs_primitive_ops_total Shared-memory events by primitive (CAS counts attempts).
# TYPE tradeoffs_primitive_ops_total counter
tradeoffs_primitive_ops_total{object="served",primitive="read"} 10
tradeoffs_primitive_ops_total{object="served",primitive="write"} 5
tradeoffs_primitive_ops_total{object="served",primitive="cas"} 7
tradeoffs_primitive_ops_total{object="q\"x",primitive="read"} 0
tradeoffs_primitive_ops_total{object="q\"x",primitive="write"} 0
tradeoffs_primitive_ops_total{object="q\"x",primitive="cas"} 0
# HELP tradeoffs_cas_failures_total Failed CAS attempts: another process moved the register first (contention).
# TYPE tradeoffs_cas_failures_total counter
tradeoffs_cas_failures_total{object="served"} 2
tradeoffs_cas_failures_total{object="q\"x"} 0
# HELP tradeoffs_op_steps Shared-memory steps per operation.
# TYPE tradeoffs_op_steps histogram
tradeoffs_op_steps_bucket{object="served",op="increment",le="0"} 1
tradeoffs_op_steps_bucket{object="served",op="increment",le="1"} 1
tradeoffs_op_steps_bucket{object="served",op="increment",le="3"} 3
tradeoffs_op_steps_bucket{object="served",op="increment",le="+Inf"} 3
tradeoffs_op_steps_sum{object="served",op="increment"} 6
tradeoffs_op_steps_count{object="served",op="increment"} 3
# HELP tradeoffs_op_latency_seconds Operation latency.
# TYPE tradeoffs_op_latency_seconds histogram
tradeoffs_op_latency_seconds_bucket{object="served",op="increment",le="0"} 0
tradeoffs_op_latency_seconds_bucket{object="served",op="increment",le="1e-09"} 3
tradeoffs_op_latency_seconds_bucket{object="served",op="increment",le="+Inf"} 3
tradeoffs_op_latency_seconds_sum{object="served",op="increment"} 3e-09
tradeoffs_op_latency_seconds_count{object="served",op="increment"} 3
# HELP tradeoffs_register_accesses_total Accesses per base register (heatmap).
# TYPE tradeoffs_register_accesses_total counter
tradeoffs_register_accesses_total{object="served",register="root"} 12
# HELP tradeoffs_register_access_overflow_total Accesses to registers allocated after instrumentation was attached.
# TYPE tradeoffs_register_access_overflow_total counter
tradeoffs_register_access_overflow_total{object="served"} 1
tradeoffs_register_access_overflow_total{object="q\"x"} 0
`

func TestWriteMetricsGolden(t *testing.T) {
	var buf strings.Builder
	WriteMetrics(&buf, goldenStats())
	if got := buf.String(); got != golden {
		t.Fatalf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestHandlerContentTypeAndBody(t *testing.T) {
	h := Handler(func() []obs.NamedStats { return goldenStats() })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if rec.Body.String() != golden {
		t.Fatalf("handler body diverges from WriteMetrics output:\n%s", rec.Body.String())
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	mux := DebugMux(func() []obs.NamedStats { return nil })
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestExpositionFromLiveCollector renders a real instrumented workload and
// checks the structural pieces a Prometheus scraper relies on, without
// pinning timing-dependent bytes.
func TestExpositionFromLiveCollector(t *testing.T) {
	pool := primitive.NewPool()
	r := pool.New("cell", 0)
	col := obs.NewCollector(1, pool)
	ctx := col.Context(0)
	op := col.Op("write")
	for i := 0; i < 4; i++ {
		sp := op.Begin(ctx)
		ctx.Write(r, int64(i))
		sp.End()
	}
	ctx.CAS(r, -1, 0) // guaranteed failure

	var buf strings.Builder
	WriteMetrics(&buf, []obs.NamedStats{{Object: "live", Stats: col.Snapshot()}})
	text := buf.String()
	for _, want := range []string{
		`tradeoffs_primitive_ops_total{object="live",primitive="write"} 4`,
		`tradeoffs_cas_failures_total{object="live"} 1`,
		`tradeoffs_op_steps_bucket{object="live",op="write",le="1"} 4`,
		`tradeoffs_op_steps_count{object="live",op="write"} 4`,
		`tradeoffs_op_latency_seconds_count{object="live",op="write"} 4`,
		`register="` + r.String() + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}
