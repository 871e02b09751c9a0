package history

import (
	"testing"
)

// decodeHistory turns fuzz bytes into a small history with distinct,
// well-formed timestamps (the recorder invariant).
func decodeHistory(data []byte, kinds []Kind) []Op {
	var ops []Op
	clock := int64(1)
	for i := 0; i+2 < len(data) && len(ops) < 10; i += 3 {
		kind := kinds[int(data[i])%len(kinds)]
		val := int64(data[i+1] % 4)
		span := int64(data[i+2]%6) + 1

		// Invocations land on even stamps and responses on odd stamps, so
		// endpoints never collide; when the drafts tie, the pair overlaps,
		// which is how both checkers treat ambiguity.
		op := Op{Kind: kind, Inv: 2 * clock, Res: 2*(clock+span) + 1}
		clock += 2
		switch kind {
		case KindWriteMax:
			op.Arg = val
		case KindReadMax, KindCounterRead:
			op.Ret = val
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzMaxRegisterCheckerSoundness cross-validates the interval max register
// checker against the exact one on fuzz-generated histories: whenever the
// exact checker accepts, the interval checker must.
func FuzzMaxRegisterCheckerSoundness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 0, 2, 1})
	f.Add([]byte{1, 3, 1, 0, 3, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeHistory(data, []Kind{KindWriteMax, KindReadMax})
		exactErr := CheckLinearizable(ops, MaxRegisterSpec{})
		fastErr := CheckMaxRegister(ops)
		if exactErr == nil && fastErr != nil {
			t.Fatalf("exact accepts but interval rejects: %v\nops: %+v", fastErr, ops)
		}
	})
}

// FuzzCounterCheckerSoundness does the same for the counter checker.
func FuzzCounterCheckerSoundness(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 1, 2, 3})
	f.Add([]byte{1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeHistory(data, []Kind{KindIncrement, KindCounterRead})
		exactErr := CheckLinearizable(ops, CounterSpec{})
		fastErr := CheckCounter(ops)
		if exactErr == nil && fastErr != nil {
			t.Fatalf("exact accepts but interval rejects: %v\nops: %+v", fastErr, ops)
		}
	})
}

// decodeSnapshotHistory turns fuzz bytes into a small two-segment snapshot
// history. Processes 0 and 1 update their own segment sequentially,
// writing 1, 2, 3, ...; processes 2 and 3 scan. Every operation starts
// after the one decoded before it but may run up to eight ticks, so a
// long scan can span short scans of the other scanner, and scans return
// small values that may or may not be legal.
func decodeSnapshotHistory(data []byte) []Op {
	const segs = 2
	var ops []Op
	var written [segs]int64
	var free [segs + 2]int64 // each process's next free tick
	now := int64(1)
	for i := 0; i+2 < len(data) && len(ops) < 10; i += 3 {
		proc := int(data[i]) % (segs + 2)
		start := max(now, free[proc])
		span := int64(data[i+2]%8) + 1
		free[proc] = start + span + 1
		now = start + 1 + int64(data[i+2]>>3%3)

		// Even invocations and odd responses, as in decodeHistory.
		op := Op{Proc: proc, Inv: 2 * start, Res: 2*(start+span) + 1}
		if proc < segs {
			written[proc]++
			op.Kind, op.Arg = KindUpdate, written[proc]
		} else {
			op.Kind = KindScan
			op.RetVec = make([]int64, segs)
			for seg := range op.RetVec {
				op.RetVec[seg] = int64(data[i+1]>>(2*seg)) % 4
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzSnapshotCheckerSoundness does the same for the batch snapshot checker
// and both modes of the streaming one, which the live monitor runs.
func FuzzSnapshotCheckerSoundness(f *testing.F) {
	// A long scan by process 2 spans a short scan by process 3 and is
	// sealed after that scan's successor.
	f.Add([]byte("000207000710720"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeSnapshotHistory(data)
		if CheckLinearizable(ops, SnapshotSpec{N: 2}) != nil {
			return
		}
		if err := CheckSnapshot(ops); err != nil {
			t.Fatalf("exact accepts but batch rejects: %v\nops: %+v", err, ops)
		}
		for _, relaxed := range []bool{false, true} {
			if v := runStream(NewIncrementalSnapshot(relaxed), ops); v != nil {
				t.Fatalf("exact accepts but streaming (relaxed=%v) rejects: %v\nops: %+v", relaxed, v, ops)
			}
		}
	})
}
