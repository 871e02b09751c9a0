package obs

import (
	"testing"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// TestBoundArmedMidSpanScoresOwnCASFailures: a span that straddles
// SetOpBound is scored with the CAS failures it saw itself, not the
// failures its process recorded before the span began. Two failure-free
// reads over a 1-step uncontended budget are an unexplained exceedance.
func TestBoundArmedMidSpanScoresOwnCASFailures(t *testing.T) {
	pool := primitive.NewPool()
	r := pool.New("r", 0)
	col := NewCollector(1, pool)
	ctx := col.Context(0)
	if ctx.CAS(r, 1, 2) {
		t.Fatal("stale CAS succeeded")
	}

	sp := col.Op("read").Begin(ctx)
	col.SetOpBound("read", OpBoundConfig{Uncontended: 1})
	ctx.Read(r)
	ctx.Read(r)
	sp.End()

	b := col.Snapshot().Ops[0].Bound
	if b.ExceedUnexplained != 1 || b.ExceedExplained != 0 {
		t.Fatalf("exceedances: unexplained %d, cas-retries %d; want 1, 0",
			b.ExceedUnexplained, b.ExceedExplained)
	}
}
