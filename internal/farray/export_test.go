package farray

import "github.com/restricteduse/tradeoffs/internal/primitive"

// SingleRefresh is a deliberately broken f-array for the model-check tests:
// its Add refreshes each level exactly once and moves on whether or not
// that CAS succeeded, where the real refresh retries a failed first CAS.
type SingleRefresh struct{ *FArray }

// Add increases the calling process's slot by delta like FArray.Add, with
// the single refresh per level.
func (m SingleRefresh) Add(ctx primitive.Context, delta int64) {
	leaf := m.tree.Leaves[ctx.ID()]
	cell := m.values[leaf.Index]
	ctx.Write(cell, ctx.Read(cell)+delta)
	for node := leaf.Parent; node != nil; node = node.Parent {
		cell := m.values[node.Index]
		old := ctx.Read(cell)
		fresh := m.agg.combine(ctx.Read(m.values[node.Left.Index]), ctx.Read(m.values[node.Right.Index]))
		ctx.CAS(cell, old, fresh)
	}
}
