package tradeoffs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/obs/expo"
	"github.com/restricteduse/tradeoffs/internal/obs/flight"
)

// FlightConfig tunes a FlightRecorder. The zero value picks the
// defaults noted per field.
type FlightConfig struct {
	// SampleEvery records one in N operations per process (default 64).
	// 1 records every operation and enables exact-mode checking; any
	// other value observes a sub-history, so only the subset-sound
	// checker conditions run (see docs/flight-recorder.md).
	SampleEvery int

	// Window is the per-(object, process) ring capacity in records
	// (default 1024, rounded up to a power of two). A slow monitor
	// overwrites the oldest records rather than stalling the workload;
	// overwritten records count as drops and permanently degrade that
	// object's checking to the subset-sound conditions.
	Window int

	// ArtifactWindow is how many admitted records per object are kept
	// for /debug/history dumps and violation artifacts (default 512).
	ArtifactWindow int

	// Poll is the monitor's drain interval (default 2ms).
	Poll time.Duration

	// ArtifactDir, when set, receives a self-contained repro per
	// violating object: <object>-violation.history.json (re-checkable
	// offline, renderable with cmd/simtrace -from-history) and
	// <object>-violation.trace.json (Chrome trace, opens in Perfetto).
	ArtifactDir string

	// OnViolation, when set, is called on the monitor goroutine for
	// each detected violation, after any artifacts are written.
	OnViolation func(FlightViolation)
}

// FlightViolation is one detected linearizability violation.
type FlightViolation struct {
	Object        string    `json:"object"`
	Family        string    `json:"family"`
	Time          time.Time `json:"time"`
	Checker       string    `json:"checker"`
	Detail        string    `json:"detail"`
	ArtifactPaths []string  `json:"artifacts,omitempty"`
}

// FlightTapStats is one recorded object's live counters.
type FlightTapStats struct {
	Object   string `json:"object"`
	Family   string `json:"family"`
	Procs    int    `json:"procs"`
	Recorded int64  `json:"recorded"`
	Dropped  int64  `json:"dropped"`
	Pending  int64  `json:"pending"`
	Relaxed  bool   `json:"relaxed"`
	Violated bool   `json:"violated"`
}

// FlightStats is a recorder-wide snapshot.
type FlightStats struct {
	SampleEvery int              `json:"sample_every"`
	Recorded    int64            `json:"recorded"`
	Dropped     int64            `json:"dropped"`
	Pending     int64            `json:"pending"`
	Violations  int64            `json:"violations"`
	Taps        []FlightTapStats `json:"taps"`
}

// FlightRecorder is an always-on flight recorder and online
// linearizability monitor for live runs. Construct one per application,
// pass it to constructors with WithFlightRecorder, then Start it:
//
//	fr := tradeoffs.NewFlightRecorder(tradeoffs.FlightConfig{})
//	ctr, _ := tradeoffs.NewCounter(tradeoffs.WithFlightRecorder(fr))
//	fr.Start()
//	defer fr.Stop()
//
// Every handle operation on a tapped object streams an
// invocation/response record (1-in-SampleEvery per process) into a
// lock-free ring; a background goroutine replays the records through
// the paper's interval checkers and reports any window that is not
// linearizable, packaged as a repro artifact. Composes with
// WithObservability — when both are attached to an object, the
// Observability handlers also serve the recorder's metrics,
// /debug/history, and /debug/violations — and with WithBatching, whose
// coalesced flushes are recorded as single weighted increments.
type FlightRecorder struct {
	rec *flight.Recorder

	mu      sync.Mutex
	names   map[string]bool
	nextIdx map[string]int
	started bool
}

// NewFlightRecorder returns an empty recorder; tap objects into it with
// WithFlightRecorder before calling Start.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	fcfg := flight.Config{
		SampleEvery:    cfg.SampleEvery,
		WindowPerProc:  cfg.Window,
		ArtifactWindow: cfg.ArtifactWindow,
		Poll:           cfg.Poll,
		ArtifactDir:    cfg.ArtifactDir,
	}
	if cb := cfg.OnViolation; cb != nil {
		fcfg.OnViolation = func(v *flight.Violation) { cb(publicViolation(v)) }
	}
	return &FlightRecorder{
		rec:     flight.New(fcfg),
		names:   make(map[string]bool),
		nextIdx: make(map[string]int),
	}
}

// tap registers one newly constructed object. An empty name (no
// WithName and no Observability-assigned name) is auto-assigned
// family#k, skipping names already taken.
func (f *FlightRecorder) tap(family, name string, procs int) (*flight.Tap, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return nil, errors.New("tradeoffs: flight recorder already started; construct objects before Start")
	}
	if name == "" {
		for {
			name = fmt.Sprintf("%s#%d", family, f.nextIdx[family])
			f.nextIdx[family]++
			if !f.names[name] {
				break
			}
		}
	}
	if f.names[name] {
		return nil, fmt.Errorf("tradeoffs: flight recorder object name %q already in use", name)
	}
	f.names[name] = true
	return f.rec.Tap(family, name, procs), nil
}

// Start launches the monitor goroutine. Construct all recorded objects
// first; constructors tapping a started recorder fail.
func (f *FlightRecorder) Start() {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	f.rec.Start()
}

// Stop halts the monitor after a final drain-and-check pass. Safe to
// call once the workload's operations have completed; idempotent.
func (f *FlightRecorder) Stop() { f.rec.Stop() }

// Sync forces a full drain-and-check pass and returns once it has
// completed — useful before reading Stats or Violations in tests and
// shutdown paths.
func (f *FlightRecorder) Sync() { f.rec.Sync() }

// Stats snapshots the recorder's counters. Safe from any goroutine.
func (f *FlightRecorder) Stats() FlightStats {
	st := f.rec.Stats()
	out := FlightStats{
		SampleEvery: st.SampleEvery,
		Recorded:    st.Recorded,
		Dropped:     st.Dropped,
		Pending:     st.Pending,
		Violations:  st.Violations,
	}
	for _, t := range st.Taps {
		out.Taps = append(out.Taps, FlightTapStats{
			Object:   t.Name,
			Family:   t.Family,
			Procs:    t.Procs,
			Recorded: t.Recorded,
			Dropped:  t.Dropped,
			Pending:  t.Pending,
			Relaxed:  t.Relaxed,
			Violated: t.Violated,
		})
	}
	return out
}

// Violations returns the violations detected so far (at most one per
// object: detection latches).
func (f *FlightRecorder) Violations() []FlightViolation {
	vs := f.rec.Violations()
	out := make([]FlightViolation, 0, len(vs))
	for _, v := range vs {
		out = append(out, publicViolation(v))
	}
	return out
}

func publicViolation(v *flight.Violation) FlightViolation {
	out := FlightViolation{
		Object:        v.Object,
		Family:        v.Family,
		Time:          v.Time,
		ArtifactPaths: append([]string(nil), v.ArtifactPaths...),
	}
	if v.Err != nil {
		out.Checker = v.Err.Checker
		out.Detail = v.Err.Detail
	}
	return out
}

// WriteHistory writes the recorder's current per-object windows as a
// JSON array of history dumps — the same payload /debug/history serves,
// each element re-checkable offline and renderable with
// cmd/simtrace -from-history.
func (f *FlightRecorder) WriteHistory(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.rec.Dumps())
}

// Handler serves the recorder standalone (without an Observability):
// /metrics with the tradeoffs_flight_* series, /debug/history,
// /debug/violations, and the standard Go debug endpoints.
func (f *FlightRecorder) Handler() http.Handler {
	return expo.DebugMuxWith(
		func() []obs.NamedStats { return nil },
		func() *flight.Recorder { return f.rec },
		nil,
	)
}

// WithFlightRecorder taps the constructed object into f: every handle
// operation is (sampled and) streamed to f's online linearizability
// monitor. Combine with WithName to control the tap's object label;
// with WithObservability the object shares one name across both
// registries and f's endpoints fold into the Observability handlers.
func WithFlightRecorder(f *FlightRecorder) Option {
	return optionFunc(func(c *config) { c.flight = f })
}

// registerFlight taps a newly built object into its flight recorder (if
// any), first linking the recorder to the object's Observability so one
// handler serves both. name is the Observability-resolved object name,
// or WithName's value ("" lets the recorder auto-name).
func registerFlight(c config, family, name string) (*flight.Tap, error) {
	if c.flight == nil {
		return nil, nil
	}
	if c.obs != nil {
		if err := c.obs.attachFlight(c.flight); err != nil {
			return nil, err
		}
	}
	return c.flight.tap(family, name, c.processes)
}
