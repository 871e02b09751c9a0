package analysis

import (
	"go/ast"
	"go/types"
)

// padalignExempt are the packages allowed to allocate unpadded pools:
// the primitive package itself, plus the step-accounting and
// model-checking harnesses, where registers are driven by one scheduler
// and padding only wastes memory.
var padalignExempt = []string{
	"internal/primitive",
	"internal/sim",
	"internal/adversary",
	"internal/bench",
	"internal/analysis",
}

// Padalign requires hot-path register arrays to come from cache-line
// padded arenas: false sharing between adjacent unpadded registers was
// measured under multi-writer contention, so production call sites (the
// facade, examples, servers) must allocate with primitive.NewPadded. Its
// New gives each register a line of its own; NewNear shares a line on
// purpose, for registers every operation touches together.
// primitive.NewPool stays legal in the simulator/adversary/bench
// harnesses, where a deterministic scheduler serializes every access.
var Padalign = &Analyzer{
	Name: "padalign",
	Doc: "require primitive.NewPadded for shared hot-path register arrays: " +
		"NewPool packs registers into adjacent cache lines and false-shares " +
		"under real concurrency (suppressor: unpadded)",
	Suppressor: "unpadded",
	Run:        runPadalign,
}

func runPadalign(pass *Pass) error {
	for _, exempt := range padalignExempt {
		if hasPathSuffix(pass.Path, exempt) {
			return nil
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "NewPool" || fn.Pkg() == nil || !isPrimitivePackage(fn.Pkg().Path()) {
				return true
			}
			pass.Reportf(call.Pos(), "primitive.NewPool allocates unpadded registers that false-share cache lines on hot paths: use primitive.NewPadded, whose New gives each register its own line (NewNear shares one only on purpose), or annotate //tradeoffvet:unpadded where the dense layout is deliberate")
			return true
		})
	}
	return nil
}
