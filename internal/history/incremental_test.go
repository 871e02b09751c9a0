package history

import (
	"math/rand"
	"sort"
	"testing"
)

// sealAll is a watermark beyond every generated timestamp.
const sealAll = int64(1) << 60

// runStream replays ops through a Stream the way the flight monitor does:
// arrivals in response order, watermark = least invocation still in
// flight. Returns the latched verdict.
func runStream(inc Incremental, ops []Op) *ViolationError {
	byRes := append([]Op(nil), ops...)
	sort.Slice(byRes, func(i, j int) bool { return byRes[i].Res < byRes[j].Res })
	st := NewStream(inc)
	for i, op := range byRes {
		st.Add(op)
		// Everything after index i is still in flight; the watermark may
		// not pass its invocation.
		w := sealAll
		for _, rest := range byRes[i+1:] {
			if rest.Inv < w {
				w = rest.Inv
			}
		}
		if v := st.Advance(w); v != nil {
			return v
		}
	}
	return st.Advance(sealAll)
}

// genMaxRegOps generates random overlapping max register histories. With
// legal=true each result is the value at the op's invocation point, so
// generation order is an explicit linearization witness; with legal=false
// results are random and the batch checker is the reference verdict.
func genMaxRegOps(r *rand.Rand, n int, legal bool) []Op {
	clock := int64(1)
	ops := make([]Op, 0, n)
	cur := int64(0)
	for i := 0; i < n; i++ {
		op := Op{Proc: r.Intn(4), Inv: 2 * clock, Res: 2*(clock+int64(r.Intn(6))+1) + 1}
		clock += 2
		if r.Intn(2) == 0 {
			op.Kind = KindWriteMax
			op.Arg = int64(r.Intn(5))
			if op.Arg > cur {
				cur = op.Arg
			}
		} else {
			op.Kind = KindReadMax
			if legal {
				op.Ret = cur
			} else {
				op.Ret = int64(r.Intn(5))
			}
		}
		ops = append(ops, op)
	}
	return ops
}

func genCounterOps(r *rand.Rand, n int, legal bool) []Op {
	clock := int64(1)
	ops := make([]Op, 0, n)
	started := int64(0)
	for i := 0; i < n; i++ {
		op := Op{Proc: r.Intn(4), Inv: 2 * clock, Res: 2*(clock+int64(r.Intn(6))+1) + 1}
		clock += 2
		if r.Intn(2) == 0 {
			op.Kind = KindIncrement
			if r.Intn(4) == 0 {
				op.Arg = int64(r.Intn(3)) + 2 // weighted Add delta
			}
			started += IncWeight(op)
		} else {
			op.Kind = KindCounterRead
			if legal {
				op.Ret = started
			} else {
				op.Ret = r.Int63n(started + 2)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

func genSnapshotOps(r *rand.Rand, n, segCount int, legal bool) []Op {
	clock := int64(1)
	ops := make([]Op, 0, n)
	written := make([]int, segCount) // updates issued per segment
	segVal := func(seg, idx int) int64 { return int64(seg*1000 + idx) }
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			seg := r.Intn(segCount)
			written[seg]++
			ops = append(ops, Op{
				Proc: seg, Kind: KindUpdate, Arg: segVal(seg, written[seg]),
				Inv: 2 * clock, Res: 2*clock + 1, // sequential: no self-overlap
			})
			clock++
			continue
		}
		vec := make([]int64, segCount)
		for seg := range vec {
			idx := written[seg]
			if !legal {
				// Mostly plausible indices; occasionally off the end
				// (never-written) to exercise rejection parity.
				idx = r.Intn(written[seg] + 2)
			}
			if idx > 0 {
				vec[seg] = segVal(seg, idx)
			}
		}
		ops = append(ops, Op{
			Proc: segCount + r.Intn(2), Kind: KindScan, RetVec: vec,
			Inv: 2 * clock, Res: 2*(clock+int64(r.Intn(4))) + 1,
		})
		clock++
	}
	return ops
}

func genConsensusOps(r *rand.Rand, n int, legal bool) []Op {
	clock := int64(1)
	ops := make([]Op, 0, n)
	decided := int64(r.Intn(3)) + 1
	for i := 0; i < n; i++ {
		op := Op{
			Proc: r.Intn(4), Kind: KindPropose,
			Arg: int64(r.Intn(3)) + 1, Ret: decided,
			Inv: 2 * clock, Res: 2*(clock+int64(r.Intn(6))+1) + 1,
		}
		if i == 0 && legal {
			op.Arg = decided // the decided value has a proposer
		}
		if !legal && r.Intn(8) == 0 {
			op.Ret = int64(r.Intn(4)) + 1 // sometimes disagree / decide phantom
		}
		clock += 2
		ops = append(ops, op)
	}
	return ops
}

// TestIncrementalParity cross-validates every incremental checker against
// its batch counterpart on random histories: identical accept/reject
// verdicts regardless of arrival order and watermark schedule.
func TestIncrementalParity(t *testing.T) {
	families := []struct {
		name  string
		gen   func(r *rand.Rand) []Op
		batch func([]Op) error
	}{
		{"maxreg", func(r *rand.Rand) []Op { return genMaxRegOps(r, 3+r.Intn(40), false) }, CheckMaxRegister},
		{"counter", func(r *rand.Rand) []Op { return genCounterOps(r, 3+r.Intn(40), false) }, CheckCounter},
		{"snapshot", func(r *rand.Rand) []Op { return genSnapshotOps(r, 3+r.Intn(40), 3, false) }, CheckSnapshot},
		{"consensus", func(r *rand.Rand) []Op { return genConsensusOps(r, 3+r.Intn(20), false) }, CheckConsensus},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			accepts, rejects := 0, 0
			for seed := int64(0); seed < 400; seed++ {
				r := rand.New(rand.NewSource(seed))
				ops := fam.gen(r)
				batchErr := fam.batch(ops)
				incErr := runStream(NewIncremental(fam.name, false), ops)
				if (batchErr == nil) != (incErr == nil) {
					t.Fatalf("seed %d: batch=%v incremental=%v\nops: %+v", seed, batchErr, incErr, ops)
				}
				if batchErr == nil {
					accepts++
				} else {
					rejects++
				}
			}
			if accepts == 0 || rejects == 0 {
				t.Fatalf("generator not exercising both verdicts: %d accepts, %d rejects", accepts, rejects)
			}
		})
	}
}

// TestIncrementalRelaxedSubsetSound verifies the sampled-mode contract: on
// any sub-history of a batch-accepted history, the relaxed checker must
// accept (sampling may hide violations but never invent them).
func TestIncrementalRelaxedSubsetSound(t *testing.T) {
	families := []struct {
		name  string
		gen   func(r *rand.Rand) []Op
		batch func([]Op) error
	}{
		{"maxreg", func(r *rand.Rand) []Op { return genMaxRegOps(r, 3+r.Intn(40), true) }, CheckMaxRegister},
		{"counter", func(r *rand.Rand) []Op { return genCounterOps(r, 3+r.Intn(40), true) }, CheckCounter},
		{"snapshot", func(r *rand.Rand) []Op { return genSnapshotOps(r, 3+r.Intn(40), 3, true) }, CheckSnapshot},
		{"consensus", func(r *rand.Rand) []Op { return genConsensusOps(r, 3+r.Intn(20), true) }, CheckConsensus},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			checked := 0
			for seed := int64(0); seed < 600 && checked < 120; seed++ {
				r := rand.New(rand.NewSource(seed))
				ops := fam.gen(r)
				if fam.batch(ops) != nil {
					continue // only legal full histories induce the contract
				}
				checked++
				var sample []Op
				for _, op := range ops {
					if r.Intn(3) > 0 {
						sample = append(sample, op)
					}
				}
				if v := runStream(NewIncremental(fam.name, true), sample); v != nil {
					t.Fatalf("seed %d: relaxed checker rejected a sub-history of a legal history: %v\nfull: %+v\nsample: %+v",
						seed, v, ops, sample)
				}
			}
			if checked < 20 {
				t.Fatalf("too few legal histories generated: %d", checked)
			}
		})
	}
}

// TestIncrementalExactViolations pins concrete violations through the
// streaming path with partial watermarks.
func TestIncrementalExactViolations(t *testing.T) {
	t.Run("maxreg lower bound at admit", func(t *testing.T) {
		ops := []Op{
			{Kind: KindWriteMax, Arg: 7, Inv: 1, Res: 2},
			{Kind: KindReadMax, Ret: 0, Inv: 10, Res: 11}, // missed completed 7
		}
		v := runStream(NewIncrementalMaxRegister(false), ops)
		if v == nil || v.Checker != "maxreg" {
			t.Fatalf("want maxreg violation, got %v", v)
		}
	})
	t.Run("maxreg phantom read at seal", func(t *testing.T) {
		ops := []Op{
			{Kind: KindWriteMax, Arg: 3, Inv: 1, Res: 2},
			{Kind: KindReadMax, Ret: 9, Inv: 10, Res: 11}, // 9 never written
		}
		st := NewStream(NewIncrementalMaxRegister(false))
		for _, op := range ops {
			st.Add(op)
		}
		if v := st.Advance(11); v != nil {
			t.Fatalf("phantom read must not fire before its response is sealed, got %v", v)
		}
		if v := st.Advance(12); v == nil {
			t.Fatal("phantom read not detected after sealing past its response")
		}
	})
	t.Run("counter upper bound at seal", func(t *testing.T) {
		ops := []Op{
			{Kind: KindIncrement, Inv: 1, Res: 2},
			{Kind: KindCounterRead, Ret: 5, Inv: 3, Res: 4}, // only 1 started
		}
		v := runStream(NewIncrementalCounter(false), ops)
		if v == nil || v.Checker != "counter" {
			t.Fatalf("want counter violation, got %v", v)
		}
	})
	t.Run("counter weighted add", func(t *testing.T) {
		ops := []Op{
			{Kind: KindIncrement, Arg: 8, Inv: 1, Res: 2}, // Add(8)
			{Kind: KindCounterRead, Ret: 8, Inv: 3, Res: 4},
			{Kind: KindCounterRead, Ret: 7, Inv: 5, Res: 6}, // non-monotone
		}
		v := runStream(NewIncrementalCounter(false), ops)
		if v == nil || v.Checker != "counter" {
			t.Fatalf("want monotonicity violation, got %v", v)
		}
	})
	t.Run("snapshot stale view", func(t *testing.T) {
		ops := []Op{
			{Proc: 0, Kind: KindUpdate, Arg: 11, Inv: 1, Res: 2},
			{Proc: 1, Kind: KindScan, RetVec: []int64{11, 0}, Inv: 3, Res: 4},
			{Proc: 1, Kind: KindScan, RetVec: []int64{0, 0}, Inv: 5, Res: 6}, // went backwards
		}
		v := runStream(NewIncrementalSnapshot(false), ops)
		if v == nil || v.Checker != "snapshot" {
			t.Fatalf("want snapshot violation, got %v", v)
		}
	})
	t.Run("consensus disagreement", func(t *testing.T) {
		ops := []Op{
			{Proc: 0, Kind: KindPropose, Arg: 1, Ret: 1, Inv: 1, Res: 2},
			{Proc: 1, Kind: KindPropose, Arg: 2, Ret: 2, Inv: 3, Res: 4},
		}
		v := runStream(NewIncrementalConsensus(false), ops)
		if v == nil || v.Checker != "consensus" {
			t.Fatalf("want consensus violation, got %v", v)
		}
	})
}

// TestIncrementalRelaxedSnapshotZeroScan pins the relaxed-mode soundness
// fix for scanned zeros: an unsampled update may legitimately have
// written 0, so a relaxed checker must never pin a scanned 0 to the
// initial value and alarm on "scan saw update #0 but #N had completed".
func TestIncrementalRelaxedSnapshotZeroScan(t *testing.T) {
	ops := []Op{
		{Proc: 0, Kind: KindUpdate, Arg: 5, Inv: 1, Res: 2},
		// Linearizable iff some Update(0) overwrote the 5 — which a sampled
		// history cannot rule out.
		{Proc: 1, Kind: KindScan, RetVec: []int64{0, 0}, Inv: 10, Res: 11},
	}
	if v := runStream(NewIncrementalSnapshot(true), ops); v != nil {
		t.Fatalf("relaxed checker rejected a scan whose 0 could be an unobserved update: %v", v)
	}
	// Exact mode observes the whole history, so the same scan is a genuine
	// lost-update violation.
	if v := runStream(NewIncrementalSnapshot(false), ops); v == nil {
		t.Fatal("exact checker missed the lost-update violation")
	}
}

// TestIncrementalSnapshotLongScanSpansShortOne pins the false alarm the
// live monitor raised: a long scan that spans a short one, sealed after
// the short scan's successor. The long scan legally returns update #1
// (#2 had not completed when it began) while the short scan inside it
// returned #2. Sealing the successor must not fold the short scan into
// the real-time floor, because the long scan it overlaps is still open.
func TestIncrementalSnapshotLongScanSpansShortOne(t *testing.T) {
	ops := []Op{
		{Proc: 1, Kind: KindUpdate, Arg: 1, Inv: 1, Res: 2},
		{Proc: 1, Kind: KindUpdate, Arg: 2, Inv: 3, Res: 8},
		{Proc: 0, Kind: KindScan, RetVec: []int64{0, 1, 0}, Inv: 5, Res: 12}, // long
		{Proc: 2, Kind: KindScan, RetVec: []int64{0, 2, 0}, Inv: 6, Res: 7},  // short, inside it
		{Proc: 2, Kind: KindScan, RetVec: []int64{0, 2, 0}, Inv: 9, Res: 10}, // its successor
	}
	if err := CheckLinearizable(ops, SnapshotSpec{N: 3}); err != nil {
		t.Fatalf("witness is not linearizable: %v", err)
	}
	if err := CheckSnapshot(ops); err != nil {
		t.Fatalf("batch checker rejected the witness: %v", err)
	}
	if v := runStream(NewIncrementalSnapshot(false), ops); v != nil {
		t.Fatalf("incremental checker rejected the witness: %v", v)
	}

	// The same scans with the successor returning #1: it began after the
	// short scan ended, so its view went backwards. The short scan is
	// still open (the long scan has not been sealed), and the check
	// against it must catch that.
	stale := append([]Op(nil), ops...)
	stale[4].RetVec = []int64{0, 1, 0}
	if CheckLinearizable(stale, SnapshotSpec{N: 3}) == nil {
		t.Fatal("stale variant is linearizable")
	}
	if v := runStream(NewIncrementalSnapshot(false), stale); v == nil || v.Op.Inv != 9 {
		t.Fatalf("incremental checker missed the stale successor: %v", v)
	}
}

// TestIncrementalConsensusDecidesZero pins the decided-0 coverage fix:
// a first propose deciding 0 must count as a decision, so a later
// propose deciding differently is an agreement violation.
func TestIncrementalConsensusDecidesZero(t *testing.T) {
	ops := []Op{
		{Proc: 0, Kind: KindPropose, Arg: 0, Ret: 0, Inv: 1, Res: 2},
		{Proc: 1, Kind: KindPropose, Arg: 5, Ret: 5, Inv: 3, Res: 4},
	}
	v := runStream(NewIncrementalConsensus(false), ops)
	if v == nil || v.Checker != "consensus" {
		t.Fatalf("want agreement violation after deciding 0, got %v", v)
	}
	if err := CheckConsensus(ops); err == nil {
		t.Fatal("batch checker missed the 0-vs-5 agreement violation")
	}
	// All-zero agreement stays legal in both checkers.
	legal := []Op{
		{Proc: 0, Kind: KindPropose, Arg: 0, Ret: 0, Inv: 1, Res: 2},
		{Proc: 1, Kind: KindPropose, Arg: 7, Ret: 0, Inv: 3, Res: 4},
	}
	if v := runStream(NewIncrementalConsensus(false), legal); v != nil {
		t.Fatalf("unanimous decision of 0 rejected: %v", v)
	}
	if err := CheckConsensus(legal); err != nil {
		t.Fatalf("batch checker rejected unanimous decision of 0: %v", err)
	}
}

// TestIncrementalValueCapDegradesGracefully verifies the bounded-memory
// escape hatch: past maxTrackedValues the checker stops reporting
// provenance violations (which could be false) but keeps the rest.
func TestIncrementalValueCapDegradesGracefully(t *testing.T) {
	old := maxTrackedValues
	maxTrackedValues = 2
	defer func() { maxTrackedValues = old }()

	ops := []Op{
		{Kind: KindWriteMax, Arg: 1, Inv: 1, Res: 2},
		{Kind: KindWriteMax, Arg: 2, Inv: 3, Res: 4},
		{Kind: KindWriteMax, Arg: 3, Inv: 5, Res: 6}, // over cap: untracked
		{Kind: KindReadMax, Ret: 3, Inv: 7, Res: 8},  // legal, must not alarm
		{Kind: KindReadMax, Ret: 9, Inv: 9, Res: 10}, // phantom, but unprovable now
	}
	if v := runStream(NewIncrementalMaxRegister(false), ops); v != nil {
		t.Fatalf("over-cap checker reported a provenance violation it cannot prove: %v", v)
	}

	// Lower bound still enforced past the cap.
	ops = append(ops, Op{Kind: KindReadMax, Ret: 0, Inv: 11, Res: 12})
	if v := runStream(NewIncrementalMaxRegister(false), ops); v == nil {
		t.Fatal("lower-bound violation missed after value-cap overflow")
	}
}

// TestStreamLatchesAndSummaries covers the Stream wrapper contract.
func TestStreamLatchesAndSummaries(t *testing.T) {
	st := NewStream(NewIncrementalCounter(false))
	st.Add(Op{Kind: KindIncrement, Inv: 1, Res: 2})
	st.Add(Op{Kind: KindCounterRead, Ret: 0, Inv: 3, Res: 4}) // missed completed inc
	first := st.Advance(sealAll)
	if first == nil {
		t.Fatal("expected violation")
	}
	if got := st.Advance(sealAll); got != first {
		t.Fatalf("violation did not latch: %v vs %v", got, first)
	}
	st.Add(Op{Kind: KindIncrement, Inv: 5, Res: 6}) // ignored after latch
	if st.Pending() != 0 {
		t.Fatalf("latched stream buffered new ops: %d pending", st.Pending())
	}
	sum := st.Summary()
	if sum.Checker != "counter" || sum.Admitted != 2 || sum.CompletedWeight != 1 {
		t.Fatalf("unexpected summary: %+v", sum)
	}
}

// TestIncrementalAdmitOrderPanics pins the programming-error contract.
func TestIncrementalAdmitOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Admit did not panic")
		}
	}()
	c := NewIncrementalMaxRegister(false)
	c.Admit(Op{Kind: KindWriteMax, Arg: 1, Inv: 10, Res: 11})
	c.Admit(Op{Kind: KindWriteMax, Arg: 2, Inv: 5, Res: 6})
}

// TestIncrementalFoldedStateStaysSmall checks the eviction claim directly:
// a long legal run keeps heap/slice state bounded by the overlap degree,
// not the history length.
func TestIncrementalFoldedStateStaysSmall(t *testing.T) {
	c := NewIncrementalCounter(false)
	st := NewStream(c)
	clock := int64(1)
	total := int64(0)
	for i := 0; i < 20000; i++ {
		inc := Op{Kind: KindIncrement, Inv: clock, Res: clock + 1}
		clock += 2
		total++
		read := Op{Kind: KindCounterRead, Ret: total, Inv: clock, Res: clock + 1}
		clock += 2
		st.Add(inc)
		st.Add(read)
		if v := st.Advance(clock); v != nil {
			t.Fatalf("legal run rejected at op %d: %v", i, v)
		}
	}
	if len(c.incInvs)-c.incLo > 64 {
		t.Fatalf("incInvs not pruned: %d live entries after 20k sealed ops", len(c.incInvs)-c.incLo)
	}
	if c.incsByRes.Len() > 4 || c.readsByRes.Len() > 4 || c.deferred.Len() > 4 {
		t.Fatalf("heaps not folded: incs=%d reads=%d deferred=%d",
			c.incsByRes.Len(), c.readsByRes.Len(), c.deferred.Len())
	}
	sum := c.Summary()
	if sum.CompletedWeight == 0 || sum.StartedWeight != total {
		t.Fatalf("summary did not fold: %+v", sum)
	}
}

// feedInOrder admits ops (already in invocation order) one by one and
// seals up to each invocation, the tightest watermark the admission
// contract allows.
func feedInOrder(c Incremental, ops []Op) *ViolationError {
	for _, op := range ops {
		if v := c.Admit(op); v != nil {
			return v
		}
		if v := c.Seal(op.Inv); v != nil {
			return v
		}
	}
	return c.Seal(sealAll)
}

// TestIncrementalSnapshotStateStaysSmall is the snapshot checker's
// eviction claim: open scans and the pending-invocation queue stay bounded
// by the overlap degree, not the history length.
func TestIncrementalSnapshotStateStaysSmall(t *testing.T) {
	ops := genSnapshotOps(rand.New(rand.NewSource(1)), 20000, 3, true)
	c := NewIncrementalSnapshot(false)
	if v := feedInOrder(c, ops); v != nil {
		t.Fatalf("legal run rejected: %v", v)
	}
	if len(c.open) > 16 || len(c.scanInvs) > 32 || c.sealedInvs.Len() > 16 || c.deferred.Len() > 16 {
		t.Fatalf("state not folded: open=%d scanInvs=%d sealedInvs=%d deferred=%d",
			len(c.open), len(c.scanInvs), c.sealedInvs.Len(), c.deferred.Len())
	}
}

// BenchmarkIncrementalSnapshot measures the streaming snapshot checker's
// cost per admitted operation on a legal three-segment history.
func BenchmarkIncrementalSnapshot(b *testing.B) {
	ops := genSnapshotOps(rand.New(rand.NewSource(1)), 4096, 3, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := feedInOrder(NewIncrementalSnapshot(false), ops); v != nil {
			b.Fatal(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/admit")
}
