// Package counter is a stepbound fixture: certifiable bound declarations
// stay silent, while a tightened bound (direct or inherited through a
// call), a CAS retry loop claimed as worst-case, and a loop the evaluator
// cannot bound are all flagged.
package counter

import "github.com/restricteduse/tradeoffs/internal/primitive"

// Table is a register array whose length symbol n comes from the param
// annotation, plus one standalone cell.
type Table struct {
	cell  *primitive.Register
	cells []*primitive.Register //tradeoffvet:param n one register per process
}

// Read is exactly one shared-memory step.
//
//tradeoffvet:bound steps<=1 reads<=1
func (t *Table) Read(ctx primitive.Context) int64 {
	return ctx.Read(t.cell)
}

// Collect reads every register once; the range bound is the param symbol.
//
//tradeoffvet:bound steps<=n reads<=n
func (t *Table) Collect(ctx primitive.Context) int64 {
	var sum int64
	for _, c := range t.cells {
		sum += ctx.Read(c)
	}
	return sum
}

// Walk's loop bound is declared on the loop itself.
//
//tradeoffvet:bound steps<=2k writes<=k
func (t *Table) Walk(ctx primitive.Context, limit int) {
	//tradeoffvet:loopbound k fixture: bounded by the probe budget
	for i := 0; i < limit; i++ {
		ctx.Read(t.cell)
		ctx.Write(t.cell, 0)
	}
}

// Tight under-declares: the body issues two steps.
//
//tradeoffvet:bound steps<=1
func (t *Table) Tight(ctx primitive.Context) { // want "Table.Tight: derived worst-case steps cost 2 exceeds declared bound 1"
	ctx.Read(t.cell)
	ctx.Write(t.cell, 1)
}

// double issues two steps; callers inherit them through the call graph.
func (t *Table) double(ctx primitive.Context) {
	ctx.Read(t.cell)
	ctx.Write(t.cell, 1)
}

// Indirect under-declares a cost inherited through a call.
//
//tradeoffvet:bound steps<=1
func (t *Table) Indirect(ctx primitive.Context) { // want "Table.Indirect: derived worst-case steps cost 2 exceeds declared bound 1"
	t.double(ctx)
}

// Amortized excludes the maintenance call with a cost annotation.
//
//tradeoffvet:bound steps<=1
func (t *Table) Amortized(ctx primitive.Context) {
	ctx.Read(t.cell)
	//tradeoffvet:cost 0 fixture: amortized maintenance, charged elsewhere
	t.double(ctx)
}

// Spin claims a worst-case bound over a CAS retry loop, which is unbounded
// under contention; only the uncontended qualifier could certify it.
//
//tradeoffvet:bound steps<=2
func (t *Table) Spin(ctx primitive.Context) { // want "unbounded retry loop"
	for {
		cur := ctx.Read(t.cell)
		if ctx.CAS(t.cell, cur, cur+1) {
			return
		}
	}
}

// SpinUncontended is the same loop certified solo: the first CAS succeeds.
//
//tradeoffvet:bound steps<=2 uncontended
func (t *Table) SpinUncontended(ctx primitive.Context) {
	for {
		cur := ctx.Read(t.cell)
		if ctx.CAS(t.cell, cur, cur+1) {
			return
		}
	}
}

// Hidden loops to a plain parameter, which the evaluator cannot bound.
//
//tradeoffvet:bound steps<=n
func (t *Table) Hidden(ctx primitive.Context, limit int) int64 { // want "annotate //tradeoffvet:loopbound"
	var sum int64
	for i := 0; i < limit; i++ {
		sum += ctx.Read(t.cell)
	}
	return sum
}

// Refresh tries a CAS at most twice and stops at the first success: two
// attempts at worst, one solo, since the successful CAS forces the break
// and a body that cannot fall through runs at most once.
//
//tradeoffvet:bound steps<=4
//tradeoffvet:bound steps<=2 uncontended
func (t *Table) Refresh(ctx primitive.Context) {
	for attempt := 0; attempt < 2; attempt++ {
		cur := ctx.Read(t.cell)
		if ctx.CAS(t.cell, cur, cur+1) {
			break
		}
	}
}

// RefreshTight claims the solo cost as its worst case.
//
//tradeoffvet:bound steps<=2
func (t *Table) RefreshTight(ctx primitive.Context) { // want "Table.RefreshTight: derived worst-case steps cost 4 exceeds declared bound 2"
	for attempt := 0; attempt < 2; attempt++ {
		cur := ctx.Read(t.cell)
		if ctx.CAS(t.cell, cur, cur+1) {
			break
		}
	}
}

// Repeat's successful CAS continues the loop, so solo it still runs both
// iterations.
//
//tradeoffvet:bound steps<=2 uncontended
func (t *Table) Repeat(ctx primitive.Context) { // want "Table.Repeat: derived uncontended steps cost 4 exceeds declared bound 2"
	for attempt := 0; attempt < 2; attempt++ {
		cur := ctx.Read(t.cell)
		if ctx.CAS(t.cell, cur, cur+1) {
			continue
		}
		return
	}
}
