package obs

import "sync/atomic"

// Bound conformance: an Op can carry the operation's certified step
// budgets (instantiated by internal/obs/bounds from the tradeoffvet
// bound table) and then scores every completed span against them:
//
//   - a bound-margin histogram of observed*MarginScale/bound — the
//     live distribution of how much of the certified budget each
//     operation actually used (sharded per process like every other
//     collector, so recording never contends);
//   - an uncontended-exceedance counter, split into exceedances
//     explained by CAS retries (the span saw at least one failed CAS,
//     i.e. real contention) vs unexplained (a model discrepancy);
//   - a worst-case violation counter plus a one-shot latched callback,
//     which the facade uses to capture a re-checkable exemplar. A
//     worst-case bound is unconditional, so a single violation is
//     evidence against the certification — one exemplar suffices and
//     keeps the capture cost off the steady-state hot path.

// MarginScale is the fixed-point scale of the bound-margin histogram:
// an observation of MarginScale means the operation used exactly its
// certified budget; MarginScale/2 means half of it.
const MarginScale = 1024

// OpBoundConfig carries one operation's instantiated step budgets. A
// zero Worst (or Uncontended) means that mode was not certified. The
// expressions are the symbolic forms the budgets were instantiated
// from, carried for exposition.
type OpBoundConfig struct {
	Worst           int64
	Uncontended     int64
	WorstExpr       string
	UncontendedExpr string
	// Amortized marks the exceedance threshold (the uncontended budget,
	// or the worst-case one when no uncontended bound exists) as an
	// amortized bound: the certified function defers maintenance, so a
	// span may exceed the budget without CAS failures and without
	// contradicting the certification. Such exceedances are counted
	// under their own cause instead of "unexplained".
	Amortized bool
	// OnViolation, if set, fires at most once per Op — on the first
	// observed worst-case bound violation, from the violating
	// process's goroutine.
	OnViolation func(BoundViolation)
}

// BoundViolation describes the first worst-case bound violation
// observed on an operation.
type BoundViolation struct {
	Op       string
	Process  int
	Observed int64 // exact step count of the violating span
	Bound    int64 // instantiated worst-case budget it exceeded
}

// exceedShard is one process's exceedance counters; padded like shard
// so adjacent entries do not false-share.
type exceedShard struct {
	explained   atomic.Int64
	amortized   atomic.Int64
	unexplained atomic.Int64
	violations  atomic.Int64
	_           [32]byte
}

// SetOpBound arms bound conformance for the named operation. It may be
// called at any time — the configuration is published atomically and
// spans pick it up on their next End, scored with their own step and
// CAS-failure counts even when the span began before the arming — but
// budgets are meant to be set once at object construction, before the
// workload runs.
func (c *Collector) SetOpBound(name string, cfg OpBoundConfig) {
	if cfg.Worst == 0 && cfg.Uncontended == 0 {
		return
	}
	op := c.Op(name)
	op.bound.Store(&cfg)
}

// observeBound scores one completed span against the armed budgets.
// steps is the span's exact step count, casFails the CAS failures among
// those steps.
func (o *Op) observeBound(cfg *OpBoundConfig, idx int, steps, casFails int64) {
	// Margin is measured against the tightest unconditional budget we
	// have: the worst-case bound, or the uncontended bound for
	// operations (CAS retry loops) whose worst case is unbounded.
	ref := cfg.Worst
	if ref == 0 {
		ref = cfg.Uncontended
	}
	o.margin[idx].Observe(steps * MarginScale / ref)

	ub := cfg.Uncontended
	if ub == 0 {
		ub = cfg.Worst
	}
	if steps > ub {
		switch {
		case casFails > 0:
			o.exceed[idx].explained.Add(1)
		case cfg.Amortized:
			o.exceed[idx].amortized.Add(1)
		default:
			o.exceed[idx].unexplained.Add(1)
		}
	}

	if cfg.Worst > 0 && steps > cfg.Worst {
		o.exceed[idx].violations.Add(1)
		if cfg.OnViolation != nil && o.violLatch.CompareAndSwap(false, true) {
			cfg.OnViolation(BoundViolation{Op: o.name, Process: idx, Observed: steps, Bound: cfg.Worst})
		}
	}
}

// OpBoundStats is the merged bound-conformance view of one operation.
type OpBoundStats struct {
	// Declared reports whether a budget was armed; the remaining
	// fields are zero when it is false.
	Declared        bool
	Worst           int64
	Uncontended     int64
	WorstExpr       string
	UncontendedExpr string
	// Margin holds observed*MarginScale/bound per completed span.
	Margin HistogramSnapshot
	// Exceedances of the uncontended budget, split by cause: the span
	// observed a failed CAS (contention explains the extra steps), the
	// budget is amortized and the span paid deferred maintenance, or
	// neither (a model discrepancy).
	ExceedExplained   int64
	ExceedAmortized   int64
	ExceedUnexplained int64
	// Violations counts spans exceeding the worst-case budget.
	Violations int64
}

func (o *Op) boundStatsInto(os *OpStats) {
	cfg := o.bound.Load()
	if cfg == nil {
		return
	}
	os.Bound.Declared = true
	os.Bound.Worst = cfg.Worst
	os.Bound.Uncontended = cfg.Uncontended
	os.Bound.WorstExpr = cfg.WorstExpr
	os.Bound.UncontendedExpr = cfg.UncontendedExpr
	for i := range o.margin {
		o.margin[i].snapshotInto(&os.Bound.Margin)
		os.Bound.ExceedExplained += o.exceed[i].explained.Load()
		os.Bound.ExceedAmortized += o.exceed[i].amortized.Load()
		os.Bound.ExceedUnexplained += o.exceed[i].unexplained.Load()
		os.Bound.Violations += o.exceed[i].violations.Load()
	}
}
