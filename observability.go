package tradeoffs

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/obs/bounds"
	"github.com/restricteduse/tradeoffs/internal/obs/expo"
	"github.com/restricteduse/tradeoffs/internal/obs/flight"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// Observability is a live metrics registry shared by any number of
// objects. Construct one per application, pass it to constructors with
// WithObservability, and serve Handler (or just MetricsHandler) to watch
// the workload run:
//
//	o := tradeoffs.NewObservability()
//	ctr, _ := tradeoffs.NewCounter(
//		tradeoffs.WithObservability(o),
//		tradeoffs.WithName("served"),
//	)
//	go http.ListenAndServe("localhost:8080", o.Handler())
//
// Instrumented objects record, per object: shared-memory events by
// primitive, CAS failures (contention), log2 histograms of steps-per-op
// and latency per operation, and a per-register access heatmap. Each
// handle counts an operation's steps in memory only it touches and
// publishes them to its process's shard when the operation ends; shards
// are merged at scrape time. A scrape therefore sees an operation's steps
// once it completes, and counts are exact at quiescence. See
// docs/observability.md.
type Observability struct {
	mu       sync.Mutex
	order    []string
	byName   map[string]*obs.Collector
	families map[string]string // name -> object family, for per-family aggregation
	nextIdx  map[string]int

	// flight is set when an object is constructed with both
	// WithObservability and WithFlightRecorder: the registry's handlers
	// then also serve the recorder's metrics and debug endpoints.
	flight *FlightRecorder

	// exemplars holds the latched worst-case bound-violation exemplars,
	// at most one per (object, op) — the obs layer latches before the
	// capture callback runs — and capped like flight violations.
	exemplars []*bounds.Exemplar
}

// NewObservability returns an empty registry.
func NewObservability() *Observability {
	return &Observability{
		byName:   make(map[string]*obs.Collector),
		families: make(map[string]string),
		nextIdx:  make(map[string]int),
	}
}

// register creates the collector for one newly constructed object. An
// empty name is auto-assigned family#k in construction order, skipping
// names already taken via WithName (the same rule FlightRecorder.tap
// follows, so an unnamed object never fails construction); the resolved
// name is returned so a flight recorder attached to the same object
// labels its tap identically.
func (o *Observability) register(family, name string, processes int, pool *primitive.Pool) (*obs.Collector, string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if name == "" {
		for {
			name = fmt.Sprintf("%s#%d", family, o.nextIdx[family])
			o.nextIdx[family]++
			if _, taken := o.byName[name]; !taken {
				break
			}
		}
	}
	if _, dup := o.byName[name]; dup {
		return nil, "", fmt.Errorf("tradeoffs: observability object name %q already in use", name)
	}
	col := obs.NewCollector(processes, pool)
	o.byName[name] = col
	o.families[name] = family
	o.order = append(o.order, name)
	return col, name, nil
}

// familyUsage aggregates the live evidence for one object family across
// every collector registered so far: total CAS traffic and per-operation
// counts. It is the raw material WithAdaptiveBackend's policy sees.
func (o *Observability) familyUsage(family string) (casAttempts, casFailures, reads, updates int64) {
	o.mu.Lock()
	cols := make([]*obs.Collector, 0, len(o.order))
	for _, n := range o.order {
		if o.families[n] == family {
			cols = append(cols, o.byName[n])
		}
	}
	o.mu.Unlock()

	for _, col := range cols {
		st := col.Snapshot()
		casAttempts += st.CASAttempts
		casFailures += st.CASFailures
		for _, op := range st.Ops {
			switch op.Name {
			case "read", "scan":
				reads += op.Steps.Count
			default:
				updates += op.Steps.Count
			}
		}
	}
	return casAttempts, casFailures, reads, updates
}

// unregister rolls back a registration whose object could not finish
// construction (its flight tap failed), so the name is reusable and
// gather stops exposing the dead collector. When the rolled-back name was
// the most recently auto-assigned family#k, the index is reclaimed too —
// otherwise auto-names would gap (counter#0 freed but the next object
// named counter#1) and the two registries' numbering would drift apart.
func (o *Observability) unregister(family, name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.byName, name)
	delete(o.families, name)
	if idx := o.nextIdx[family]; idx > 0 && name == fmt.Sprintf("%s#%d", family, idx-1) {
		o.nextIdx[family] = idx - 1
	}
	for i, n := range o.order {
		if n == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

// attachFlight links the registry to a flight recorder so Handler and
// MetricsHandler cover it. One recorder per registry.
func (o *Observability) attachFlight(f *FlightRecorder) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.flight != nil && o.flight != f {
		return errors.New("tradeoffs: observability is already linked to a different flight recorder")
	}
	o.flight = f
	return nil
}

// flightRec returns the linked recorder's engine, or nil. Evaluated at
// scrape time so objects constructed after Handler() still show up.
func (o *Observability) flightRec() *flight.Recorder {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.flight == nil {
		return nil
	}
	return o.flight.rec
}

// flightStats snapshots the linked recorder, or nil without one.
func (o *Observability) flightStats() *flight.Stats {
	rec := o.flightRec()
	if rec == nil {
		return nil
	}
	st := rec.Stats()
	return &st
}

// addBoundExemplar records a latched bound-violation exemplar, capped at
// 64 like the flight recorder's violation list.
func (o *Observability) addBoundExemplar(e *bounds.Exemplar) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.exemplars) < 64 {
		o.exemplars = append(o.exemplars, e)
	}
}

// BoundExemplars returns the latched worst-case bound-violation
// exemplars, in capture order. Each is self-contained: Recheck on the
// dump re-derives the instantiated bound and confirms the exceedance.
func (o *Observability) BoundExemplars() []*bounds.Exemplar {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*bounds.Exemplar(nil), o.exemplars...)
}

// gather snapshots every registered object, in registration order.
func (o *Observability) gather() []obs.NamedStats {
	o.mu.Lock()
	names := append([]string(nil), o.order...)
	cols := make([]*obs.Collector, len(names))
	for i, n := range names {
		cols[i] = o.byName[n]
	}
	o.mu.Unlock()

	out := make([]obs.NamedStats, len(names))
	for i := range names {
		out[i] = obs.NamedStats{Object: names[i], Stats: cols[i].Snapshot()}
	}
	return out
}

// MetricsHandler returns the Prometheus-text-format /metrics handler for
// every object registered so far (and later). When a flight recorder is
// linked (WithFlightRecorder alongside WithObservability), the
// exposition includes its tradeoffs_flight_* series.
func (o *Observability) MetricsHandler() http.Handler {
	return expo.HandlerWith(o.gather, o.flightStats)
}

// Handler returns a mux serving a /debug index, /metrics, the
// step-bound conformance view /debug/bounds, plus the standard Go debug
// endpoints /debug/vars (expvar) and /debug/pprof. With a linked flight
// recorder it also serves /debug/history (the recorder's current
// per-object windows as history-dump JSON) and /debug/violations.
func (o *Observability) Handler() http.Handler {
	return expo.DebugMuxWith(o.gather, o.flightRec, o.BoundExemplars)
}

// WithObservability instruments the constructed object into o: its handles
// record into a per-object collector visible through o's handlers. Combine
// with WithName to control the metrics' object label.
func WithObservability(o *Observability) Option {
	return optionFunc(func(c *config) { c.obs = o })
}

// WithName sets the object's name in observability output (default:
// family#index in construction order). Names must be unique within an
// Observability.
func WithName(name string) Option {
	return optionFunc(func(c *config) { c.name = name })
}
