package bench

import (
	"testing"

	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// benchSink keeps read results live so the compiler cannot elide the
// measured loop body.
var benchSink int64

// BenchmarkObsOverhead compares the bare Direct context against the
// obs.Instrumented context (with op spans, as the facade wires it) on
// Algorithm A's read and write hot paths. Inside a span the instrumented
// context counts steps in plain fields and publishes them once, at End, so
// the added cost is a per-operation term (two clock readings, the
// histogram updates, one atomic add per nonzero counter and per distinct
// register) plus a few plain increments per step. The measured costs are
// recorded in docs/observability.md; re-run with:
//
//	go test -bench BenchmarkObsOverhead -benchmem ./internal/bench
func BenchmarkObsOverhead(b *testing.B) {
	const n = 64

	build := func(b *testing.B) (*core.MaxRegister, *primitive.Pool) {
		b.Helper()
		pool := primitive.NewPool()
		m, err := core.New(pool, n, 0)
		if err != nil {
			b.Fatal(err)
		}
		return m, pool
	}

	b.Run("direct/read", func(b *testing.B) {
		m, _ := build(b)
		ctx := primitive.NewDirect(0)
		if err := m.WriteMax(ctx, 42); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := m.ReadMax(ctx)
			benchSink += v
		}
	})

	b.Run("instrumented/read", func(b *testing.B) {
		m, pool := build(b)
		col := obs.NewCollector(1, pool)
		ctx := col.Context(0)
		op := col.Op("read")
		if err := m.WriteMax(ctx, 42); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := op.Begin(ctx)
			v := m.ReadMax(ctx)
			sp.End()
			benchSink += v
		}
	})

	b.Run("direct/write", func(b *testing.B) {
		m, _ := build(b)
		ctx := primitive.NewDirect(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.WriteMax(ctx, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("instrumented/write", func(b *testing.B) {
		m, pool := build(b)
		col := obs.NewCollector(1, pool)
		ctx := col.Context(0)
		op := col.Op("write")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := op.Begin(ctx)
			err := m.WriteMax(ctx, int64(i))
			sp.End()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
