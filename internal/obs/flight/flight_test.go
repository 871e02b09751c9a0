package flight

import (
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/history"
)

// liveMax is a trivially linearizable max register for driving taps.
type liveMax struct {
	mu sync.Mutex
	v  int64
}

func (m *liveMax) write(x int64) {
	m.mu.Lock()
	if x > m.v {
		m.v = x
	}
	m.mu.Unlock()
}

func (m *liveMax) read() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v
}

// TestExactModeCleanRun drives a correct object from many goroutines with
// SampleEvery=1 and asserts the monitor admits everything and stays
// quiet.
func TestExactModeCleanRun(t *testing.T) {
	rec := New(Config{SampleEvery: 1, WindowPerProc: 1 << 12})
	const procs, opsPer = 8, 400
	tap := rec.Tap("maxreg", "maxreg#0", procs)
	rec.Start()
	defer rec.Stop()

	obj := &liveMax{}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if i%3 == 0 {
					v := int64(p*opsPer + i + 1)
					tok := tap.Begin(p)
					obj.write(v)
					tap.End(p, tok, history.KindWriteMax, v, 0)
				} else {
					tok := tap.Begin(p)
					v := obj.read()
					tap.End(p, tok, history.KindReadMax, 0, v)
				}
			}
		}(p)
	}
	wg.Wait()
	rec.Sync()

	st := rec.Stats()
	if st.Recorded != procs*opsPer {
		t.Fatalf("recorded %d, want %d", st.Recorded, procs*opsPer)
	}
	if st.Dropped != 0 {
		t.Fatalf("unexpected drops: %d", st.Dropped)
	}
	if st.Violations != 0 {
		t.Fatalf("false violation on a correct object: %+v", rec.Violations())
	}
	if len(st.Taps) != 1 || st.Taps[0].Relaxed {
		t.Fatalf("exact-mode tap reported relaxed: %+v", st.Taps)
	}
	if st.Taps[0].Pending != 0 {
		t.Fatalf("records still pending after Sync with no ops in flight: %d", st.Taps[0].Pending)
	}

	dumps := rec.Dumps()
	if len(dumps) != 1 || dumps[0].Family != "maxreg" || len(dumps[0].Ops) == 0 {
		t.Fatalf("bad dump: %+v", dumps)
	}
	if sum := dumps[0].Summary; sum == nil || sum.Admitted != procs*opsPer {
		t.Fatalf("summary did not account for all ops: %+v", dumps[0].Summary)
	}
}

// TestSamplingRecordsSubset checks the 1-in-N contract and that sampled
// taps start relaxed.
func TestSamplingRecordsSubset(t *testing.T) {
	rec := New(Config{SampleEvery: 4})
	tap := rec.Tap("counter", "counter#0", 1)
	obj := int64(0)
	for i := 0; i < 400; i++ {
		tok := tap.Begin(0)
		obj++
		tap.End(0, tok, history.KindIncrement, 0, 0)
	}
	rec.Sync() // not started: runs the drain inline
	st := rec.Stats()
	if st.Recorded != 100 {
		t.Fatalf("sampled %d of 400 ops, want 100", st.Recorded)
	}
	if !st.Taps[0].Relaxed {
		t.Fatal("sampling tap must run relaxed checkers")
	}
	if st.Violations != 0 {
		t.Fatalf("unexpected violations: %+v", rec.Violations())
	}
}

// TestRingOverwriteCountsDropsAndRelaxes floods a tiny ring without a
// running monitor: old records must be dropped, counted, and the
// exact-mode stream degraded to relaxed — with no false violation.
func TestRingOverwriteCountsDropsAndRelaxes(t *testing.T) {
	rec := New(Config{SampleEvery: 1, WindowPerProc: 64})
	tap := rec.Tap("counter", "counter#0", 1)
	total := int64(0)
	for i := 0; i < 1000; i++ {
		tok := tap.Begin(0)
		total++
		tap.End(0, tok, history.KindCounterRead, 0, total-1) // reads its own pre-increment... value
	}
	rec.Sync()
	st := rec.Stats()
	if st.Dropped != 1000-64 {
		t.Fatalf("dropped %d, want %d", st.Dropped, 1000-64)
	}
	if !st.Taps[0].Relaxed {
		t.Fatal("gap did not relax the stream")
	}
	if st.Violations != 0 {
		t.Fatalf("gap produced a false violation: %+v", rec.Violations())
	}
	if dumps := rec.Dumps(); dumps[0].Dropped != 1000-64 {
		t.Fatalf("dump dropped=%d, want %d", dumps[0].Dropped, 1000-64)
	}
}

// TestWatermarkBlocksOnInflightOp pins the admission ordering: a record
// whose process has an operation still in flight must stay pending until
// the operation completes.
func TestWatermarkBlocksOnInflightOp(t *testing.T) {
	rec := New(Config{SampleEvery: 1})
	tap := rec.Tap("maxreg", "maxreg#0", 2)

	tok0 := tap.Begin(0)
	tap.End(0, tok0, history.KindWriteMax, 5, 0)

	tokStuck := tap.Begin(1) // in flight: holds the watermark
	rec.Sync()
	if got := rec.Stats().Taps[0].Pending; got == 0 {
		// The write began before the stuck op, so it may be admitted; but
		// sealing must not pass the stuck invocation.
		if sealed := rec.Stats().Taps[0].SealedTo; sealed > tokStuck.inv {
			t.Fatalf("sealed to %d past in-flight invocation %d", sealed, tokStuck.inv)
		}
	}

	tap.End(1, tokStuck, history.KindReadMax, 0, 5)
	rec.Sync()
	st := rec.Stats().Taps[0]
	if st.Pending != 0 || st.Recorded != 2 {
		t.Fatalf("after completion: pending=%d recorded=%d", st.Pending, st.Recorded)
	}
	if st.SealedTo <= tokStuck.inv {
		t.Fatalf("watermark did not advance past completed op: %d", st.SealedTo)
	}
}

// TestUnknownFamilyPanics pins the registration contract.
func TestUnknownFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown family did not panic")
		}
	}()
	New(Config{}).Tap("queue", "queue#0", 1)
}

// TestScanVecRoundTrip pushes a Scan through the ring and checks the
// vector survives.
func TestScanVecRoundTrip(t *testing.T) {
	rec := New(Config{SampleEvery: 1})
	tap := rec.Tap("snapshot", "snap#0", 2)
	tok := tap.Begin(0)
	tap.End(0, tok, history.KindUpdate, 7, 0)
	tok = tap.Begin(1)
	tap.EndVec(1, tok, []int64{7, 0})
	rec.Sync()
	dumps := rec.Dumps()
	var scan *history.Op
	for i := range dumps[0].Ops {
		if dumps[0].Ops[i].Kind == history.KindScan {
			scan = &dumps[0].Ops[i]
		}
	}
	if scan == nil || len(scan.RetVec) != 2 || scan.RetVec[0] != 7 {
		t.Fatalf("scan vector lost: %+v", dumps[0].Ops)
	}
	if rec.Stats().Violations != 0 {
		t.Fatalf("legal snapshot flagged: %+v", rec.Violations())
	}
}

// TestSamplerPicksEveryNthPerProcess pins the sampled positions: with
// SampleEvery N, a process's k-th operation (counting from 1) is sampled
// exactly when k is a multiple of N, however the processes interleave.
func TestSamplerPicksEveryNthPerProcess(t *testing.T) {
	for _, every := range []int{1, 3, 64} {
		rec := New(Config{SampleEvery: every})
		tap := rec.Tap("counter", "counter#0", 2)
		var seen [2]int
		for i := 0; i < 10*every; i++ {
			proc := 0
			if i%3 == 2 { // proc 0 runs twice as many operations as proc 1
				proc = 1
			}
			seen[proc]++
			tok := tap.Begin(proc)
			if want := seen[proc]%every == 0; tok.Sampled() != want {
				t.Fatalf("every=%d: proc %d op %d sampled=%v, want %v", every, proc, seen[proc], tok.Sampled(), want)
			}
			tap.Abort(proc, tok)
		}
	}
}
