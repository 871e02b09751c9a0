package tradeoffs

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/restricteduse/tradeoffs/internal/consensus"
	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/counter/sharded"
	"github.com/restricteduse/tradeoffs/internal/maxreg"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/obs/bounds"
	"github.com/restricteduse/tradeoffs/internal/obs/flight"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// Bound-conformance wiring: WithObservability arms each constructed
// object's operations with the certified step budgets of its actual
// implementation, instantiated from the committed bound table
// (dev/bounds/bounds.json, the machine-readable output of
// `tradeoffvet -bounds -format json`) at the object's concrete
// parameters. From then on every completed operation is scored against
// its budget — margin histograms, uncontended-exceedance counters, and
// a latched re-checkable exemplar on a worst-case violation — with no
// further configuration. Implementations with no certified bounds
// (AAC, Afek, snapshot-backed counters) simply record nothing.

// WithBoundTableJSON replaces the embedded certified-bound table with a
// tradeoffs/bounds/v1 document — a regenerated dev/bounds/bounds.json,
// or a deliberately altered table in tests. A parse failure surfaces as
// a construction error.
func WithBoundTableJSON(data []byte) Option {
	return optionFunc(func(c *config) {
		c.boundTable, c.boundTableErr = bounds.ParseTable(data)
	})
}

// opBoundSpec maps one facade operation name to the certified methods
// backing it. Multiple methods (the Scan variants) fold via OpBound.Max.
type opBoundSpec struct {
	op      string
	methods []string
}

// objectBounds locates one object in the bound table: its implementation
// key ("counter.FArray"; empty when the implementation has no certified
// bounds), its concrete parameters, and the facade operations to arm.
type objectBounds struct {
	key    string
	params bounds.Params
	specs  []opBoundSpec
}

// instantiate resolves each operation's step budget at the object's
// parameters from table (nil: the embedded table), keeping the declared
// ones. It is pure, so a construction can fail on it before registering
// anything.
func (ob objectBounds) instantiate(table *bounds.Table) ([]bounds.OpBound, error) {
	if ob.key == "" {
		return nil, nil
	}
	if table == nil {
		table = bounds.Default()
	}
	var out []bounds.OpBound
	for _, spec := range ob.specs {
		var b bounds.OpBound
		for _, m := range spec.methods {
			mb, err := table.StepBound(ob.key, m, ob.params)
			if err != nil {
				return nil, fmt.Errorf("tradeoffs: %w", err)
			}
			b = b.Max(mb)
		}
		if b.Declared() {
			b.Op, b.Params = spec.op, ob.params
			out = append(out, b)
		}
	}
	return out, nil
}

// armOpBounds arms a registered object's collector with its instantiated
// step budgets. name is the object's resolved label, used on exemplars;
// fr, when non-nil, is the flight recorder whose window an exemplar
// embeds.
func (o *Observability) armOpBounds(col *obs.Collector, family, name string, budgets []bounds.OpBound, fr *FlightRecorder) {
	for _, b := range budgets {
		cfg := obs.OpBoundConfig{
			Worst:           b.Worst,
			Uncontended:     b.Uncontended,
			WorstExpr:       b.WorstExpr,
			UncontendedExpr: b.UncontendedExpr,
			OnViolation: func(v obs.BoundViolation) {
				o.captureBoundExemplar(family, name, b, v, fr)
			},
		}
		// The exceedance threshold is the uncontended budget when one
		// exists; carry that clause's amortization flag.
		if b.Uncontended > 0 {
			cfg.Amortized = b.UncontendedAmortized
		} else {
			cfg.Amortized = b.WorstAmortized
		}
		col.SetOpBound(b.Op, cfg)
	}
}

// captureBoundExemplar builds and latches the re-checkable exemplar for
// the first worst-case bound violation of one operation. It runs on the
// violating process's goroutine, at most once per op (the obs layer
// latches first), so the flight-window snapshot and artifact write are
// one-time costs. With a linked flight recorder the exemplar embeds the
// object's current recorder window and, when the recorder writes
// artifacts, lands next to them as <object>-bound-violation.json.
func (o *Observability) captureBoundExemplar(family, name string, b bounds.OpBound, v obs.BoundViolation, fr *FlightRecorder) {
	e := &bounds.Exemplar{
		Schema:   bounds.ExemplarSchema,
		Object:   name,
		Family:   family,
		Op:       v.Op,
		Process:  v.Process,
		Observed: v.Observed,
		Expr:     b.WorstExpr,
		Params:   b.Params.Env(),
		Bound:    v.Bound,
		Time:     time.Now(),
	}
	if fr != nil {
		for _, d := range fr.rec.Dumps() {
			if d.Name == name {
				e.Dump = d
				break
			}
		}
		if dir := fr.rec.ArtifactDir(); dir != "" {
			path := filepath.Join(dir, flight.SanitizeName(name)+"-bound-violation.json")
			_ = e.WriteFile(path) // best-effort, like the recorder's own artifacts
		}
	}
	o.addBoundExemplar(e)
}

// maxRegBounds locates a max register implementation in the bound table.
func maxRegBounds(impl maxreg.MaxRegister, procs int) objectBounds {
	switch m := impl.(type) {
	case *core.MaxRegister:
		return objectBounds{"core.MaxRegister", bounds.Params{
			N: int64(procs), LogN: int64(m.MaxDepth()), RF: int64(m.Refreshes()),
		}, maxRegBoundSpecs}
	case *maxreg.CASRegister:
		return objectBounds{"maxreg.CASRegister", bounds.Params{N: int64(procs)}, maxRegBoundSpecs}
	}
	return objectBounds{}
}

var maxRegBoundSpecs = []opBoundSpec{
	{op: "read", methods: []string{"ReadMax"}},
	{op: "write", methods: []string{"WriteMax"}},
}

// counterBounds locates a counter implementation in the bound table.
func counterBounds(impl counter.Counter, procs int) objectBounds {
	switch ctr := impl.(type) {
	case *counter.FArray:
		return objectBounds{"counter.FArray", bounds.Params{N: int64(procs), LogN: int64(ctr.Depth())}, counterBoundSpecs}
	case *counter.CAS:
		return objectBounds{"counter.CAS", bounds.Params{N: int64(procs)}, counterBoundSpecs}
	case *sharded.Counter:
		return objectBounds{"sharded.Counter", bounds.Params{N: int64(procs), K: int64(ctr.MaxStripes())}, counterBoundSpecs}
	}
	return objectBounds{}
}

var counterBoundSpecs = []opBoundSpec{
	{op: "read", methods: []string{"Read"}},
	{op: "increment", methods: []string{"Increment"}},
	{op: "add", methods: []string{"Add"}},
}

// snapshotBounds locates a snapshot implementation in the bound table.
func snapshotBounds(impl snapshot.Snapshot, procs int) objectBounds {
	switch s := impl.(type) {
	case *snapshot.FArray:
		return objectBounds{"snapshot.FArray", bounds.Params{N: int64(procs), LogN: int64(s.Depth())}, snapshotBoundSpecs}
	case *snapshot.DoubleCollect:
		return objectBounds{"snapshot.DoubleCollect", bounds.Params{N: int64(procs)}, snapshotBoundSpecs}
	}
	return objectBounds{}
}

var snapshotBoundSpecs = []opBoundSpec{
	{op: "scan", methods: []string{"Scan", "ScanView", "ScanInto"}},
	{op: "update", methods: []string{"Update"}},
}

// consensusBounds locates the consensus object in the bound table.
func consensusBounds(impl *consensus.Consensus, procs int) objectBounds {
	return objectBounds{"consensus.Consensus", bounds.Params{
		N:    int64(procs),
		LogN: int64(impl.TrackerDepth()),
		R:    int64(impl.MaxRounds()),
		RF:   int64(impl.TrackerRefreshes()),
	}, consensusBoundSpecs}
}

var consensusBoundSpecs = []opBoundSpec{
	{op: "propose", methods: []string{"Propose"}},
}
