package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// evalMode selects the adversary the stepbound interpreter assumes.
type evalMode int

const (
	// modeWorst is the paper's worst-case step complexity: an unbounded
	// retry loop costs infinity (the adversary schedules a conflicting
	// step between every read and its CAS).
	modeWorst evalMode = iota

	// modeUncontended is the solo-execution cost: every bare retry loop
	// exits after one iteration and every CAS that guards an exit
	// succeeds. This is the mode the "2 steps uncontended" claims of the
	// CAS baselines and the sharded counter are stated in.
	modeUncontended
)

func (m evalMode) String() string {
	if m == modeUncontended {
		return "uncontended"
	}
	return "worst-case"
}

// A Program is the interprocedural view: every loaded package plus an
// index of function declarations, so per-function step-cost summaries can
// propagate bottom-up through calls across package boundaries (e.g.
// counter.FArray.Add -> farray.FArray.Add -> farray.FArray.refreshPath).
type Program struct {
	pkgs   []*Package
	byPath map[string]*Package
	funcs  map[string]*progFunc
}

// progFunc is one function declaration with its memoized summaries.
type progFunc struct {
	key  string
	pkg  *Package
	decl *ast.FuncDecl

	memo [2]*CostVec
}

func (pf *progFunc) display() string {
	name := pf.decl.Name.Name
	if recv := recvTypeName(pf.decl); recv != "" {
		name = recv + "." + name
	}
	return name
}

// NewProgram indexes the packages for interprocedural analysis. Packages
// analyzed together should be loaded by one Loader so types are shared.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		pkgs:   pkgs,
		byPath: map[string]*Package{},
		funcs:  map[string]*progFunc{},
	}
	for _, pkg := range pkgs {
		prog.byPath[pkg.Path] = pkg
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := declFuncKey(pkg.Path, fn)
				prog.funcs[key] = &progFunc{key: key, pkg: pkg, decl: fn}
			}
		}
	}
	return prog
}

// declFuncKey is the cross-package summary key for a declaration:
// "pkgpath.Recv.Name" ("pkgpath..Name" for plain functions).
func declFuncKey(pkgPath string, fn *ast.FuncDecl) string {
	return pkgPath + "." + recvTypeName(fn) + "." + fn.Name.Name
}

func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// objFuncKey maps a called function object to its summary key, or "" when
// the callee cannot be a statically known declaration (interface method,
// func-typed value).
func objFuncKey(obj *types.Func) string {
	if obj.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // receiver is an unnamed interface or similar
		}
		if types.IsInterface(named) {
			return "" // dynamic dispatch: no single declaration
		}
		recv = named.Obj().Name()
	}
	return obj.Pkg().Path() + "." + recv + "." + obj.Name()
}

// Summary computes (and memoizes) the function's step-cost vector in the
// given mode.
func (prog *Program) Summary(pf *progFunc, mode evalMode) CostVec {
	e := &evaluator{prog: prog, mode: mode, stack: map[string]bool{}, openCycles: map[string]bool{}}
	return e.summary(pf)
}

// funcFor resolves a bound-annotated declaration in pkg to its progFunc.
func (prog *Program) funcFor(pkg *Package, fn *ast.FuncDecl) *progFunc {
	return prog.funcs[declFuncKey(pkg.Path, fn)]
}

// evaluator interprets function bodies in one mode, maintaining the
// in-progress call stack for recursion detection.
type evaluator struct {
	prog *Program
	mode evalMode

	cur   *progFunc // function currently being evaluated
	stack map[string]bool
	// openCycles holds the keys of in-progress frames a back edge hit.
	// While non-empty, summaries are provisional (computed with zero for
	// the back edge); a frame removes its own key on completion, closing
	// that cycle without tainting its callers.
	openCycles map[string]bool
	deferred   CostVec // costs of defer statements in the current frame
}

func (e *evaluator) fset() *token.FileSet { return e.cur.pkg.Fset }
func (e *evaluator) info() *types.Info    { return e.cur.pkg.Info }

// summary evaluates one function with recursion handling: a cycle that
// issues no steps (structural recursion like subtree width computation)
// costs zero; a cycle that issues steps is unbounded, since the
// interpreter has no recursion-depth measure.
func (e *evaluator) summary(pf *progFunc) CostVec {
	if s := pf.memo[e.mode]; s != nil {
		return *s
	}
	if e.stack[pf.key] {
		e.openCycles[pf.key] = true
		return zeroVec()
	}
	if pf.decl.Body == nil {
		return unboundedVec(fmt.Sprintf("%s has no body (assembly or external linkage)", pf.display()))
	}

	e.stack[pf.key] = true
	savedCur, savedDeferred := e.cur, e.deferred
	e.cur, e.deferred = pf, zeroVec()

	f := e.evalStmts(pf.decl.Body.List)
	vec := addVec(maxVec(f.cont, f.exit), e.deferred)

	delete(e.stack, pf.key)
	e.cur, e.deferred = savedCur, savedDeferred

	if e.openCycles[pf.key] {
		// This frame is the root of a cycle some back edge hit: the back
		// edge contributed zero, so a nonzero total means steps compound
		// with recursion depth. Its own cycle is closed here — callers
		// are tainted only by cycles that remain open past this frame.
		delete(e.openCycles, pf.key)
		if !vec.isZero() {
			vec = unboundedVec(fmt.Sprintf("recursion through %s issues steps", pf.display()))
		}
	}
	if len(e.openCycles) > 0 {
		return vec // provisional while any enclosing cycle is open
	}
	pf.memo[e.mode] = &vec
	return vec
}

// flow is the cost of a statement (or statement list): the cost along the
// falling-through path, whether that path exists, and the max cost over
// paths that exit early (return, break, continue).
type flow struct {
	cont   CostVec
	live   bool
	exit   CostVec
	exited bool
}

func liveFlow(c CostVec) flow { return flow{cont: c, live: true} }

// prefixFlow charges c before every path of f.
func prefixFlow(c CostVec, f flow) flow {
	f.cont = addVec(c, f.cont)
	if f.exited {
		f.exit = addVec(c, f.exit)
	}
	return f
}

// peak is the most expensive path through f, live or exiting.
func (f flow) peak() CostVec { return maxVec(f.cont, f.exit) }

func (e *evaluator) evalStmts(list []ast.Stmt) flow {
	out := flow{live: true}
	for _, s := range list {
		r := e.evalStmt(s)
		if r.exited {
			out.exit = maxVec(out.exit, addVec(out.cont, r.exit))
			out.exited = true
		}
		if !r.live {
			out.live = false
			break
		}
		out.cont = addVec(out.cont, r.cont)
	}
	return out
}

func (e *evaluator) evalStmt(s ast.Stmt) flow {
	switch s := s.(type) {
	case nil:
		return liveFlow(zeroVec())
	case *ast.ExprStmt:
		return liveFlow(e.evalExpr(s.X))
	case *ast.AssignStmt:
		c := zeroVec()
		for _, x := range s.Rhs {
			c = addVec(c, e.evalExpr(x))
		}
		for _, x := range s.Lhs {
			c = addVec(c, e.evalExpr(x))
		}
		return liveFlow(c)
	case *ast.DeclStmt:
		c := zeroVec()
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, x := range vs.Values {
						c = addVec(c, e.evalExpr(x))
					}
				}
			}
		}
		return liveFlow(c)
	case *ast.IncDecStmt:
		return liveFlow(e.evalExpr(s.X))
	case *ast.SendStmt:
		return liveFlow(addVec(e.evalExpr(s.Chan), e.evalExpr(s.Value)))
	case *ast.ReturnStmt:
		c := zeroVec()
		for _, x := range s.Results {
			c = addVec(c, e.evalExpr(x))
		}
		return flow{exit: c, exited: true}
	case *ast.BranchStmt:
		// break/continue/goto end the current path; the loop or label
		// machinery above folds the cost back in.
		return flow{exited: true}
	case *ast.DeferStmt:
		e.deferred = addVec(e.deferred, e.evalExpr(s.Call))
		return liveFlow(zeroVec())
	case *ast.GoStmt:
		// The spawned goroutine's steps belong to another process;
		// charging the call here is conservative for this one.
		return liveFlow(e.evalExpr(s.Call))
	case *ast.LabeledStmt:
		return e.evalStmt(s.Stmt)
	case *ast.BlockStmt:
		return e.evalStmts(s.List)
	case *ast.IfStmt:
		return e.evalIf(s)
	case *ast.ForStmt:
		return e.evalFor(s)
	case *ast.RangeStmt:
		return e.evalRange(s)
	case *ast.SwitchStmt:
		pre := zeroVec()
		if s.Init != nil {
			pre = e.evalStmt(s.Init).cont
		}
		if s.Tag != nil {
			pre = addVec(pre, e.evalExpr(s.Tag))
		}
		return prefixFlow(pre, e.evalClauses(s.Body))
	case *ast.TypeSwitchStmt:
		pre := zeroVec()
		if s.Init != nil {
			pre = e.evalStmt(s.Init).cont
		}
		pre = addVec(pre, e.evalStmt(s.Assign).cont)
		return prefixFlow(pre, e.evalClauses(s.Body))
	case *ast.SelectStmt:
		return e.evalClauses(s.Body)
	case *ast.EmptyStmt:
		return liveFlow(zeroVec())
	default:
		return liveFlow(zeroVec())
	}
}

// evalClauses joins the case clauses of a switch/select as branches.
func (e *evaluator) evalClauses(body *ast.BlockStmt) flow {
	var branches []flow
	hasDefault := false
	for _, cs := range body.List {
		switch cs := cs.(type) {
		case *ast.CaseClause:
			c := zeroVec()
			for _, x := range cs.List {
				c = addVec(c, e.evalExpr(x))
			}
			if cs.List == nil {
				hasDefault = true
			}
			branches = append(branches, prefixFlow(c, e.evalStmts(cs.Body)))
		case *ast.CommClause:
			c := zeroVec()
			if cs.Comm != nil {
				c = e.evalStmt(cs.Comm).cont
			}
			branches = append(branches, prefixFlow(c, e.evalStmts(cs.Body)))
		}
	}
	if !hasDefault {
		branches = append(branches, liveFlow(zeroVec()))
	}
	return joinBranches(branches)
}

// joinBranches takes the per-class max over alternative branches.
func joinBranches(branches []flow) flow {
	out := flow{}
	for _, b := range branches {
		if b.exited {
			out.exit = maxVec(out.exit, b.exit)
			out.exited = true
		}
		if b.live {
			out.cont = maxVec(out.cont, b.cont)
			out.live = true
		}
	}
	return out
}

func (e *evaluator) evalIf(s *ast.IfStmt) flow {
	pre := zeroVec()
	if s.Init != nil {
		pre = e.evalStmt(s.Init).cont
	}
	pre = addVec(pre, e.evalExpr(s.Cond))

	// Uncontended mode: a CAS guarding a branch succeeds, so only the
	// success branch is taken. `if ctx.CAS(...) { ... }` forces then;
	// `if !ctx.CAS(...) { ... }` forces the fallthrough/else.
	if e.mode == modeUncontended {
		switch cond := ast.Unparen(s.Cond).(type) {
		case *ast.CallExpr:
			if e.isContextStep(cond) == "CAS" {
				return prefixFlow(pre, e.evalStmt(s.Body))
			}
		case *ast.UnaryExpr:
			if call, ok := ast.Unparen(cond.X).(*ast.CallExpr); ok && cond.Op == token.NOT && e.isContextStep(call) == "CAS" {
				if s.Else != nil {
					return prefixFlow(pre, e.evalStmt(s.Else))
				}
				return prefixFlow(pre, liveFlow(zeroVec()))
			}
		}
	}

	branches := []flow{e.evalStmt(s.Body)}
	if s.Else != nil {
		branches = append(branches, e.evalStmt(s.Else))
	} else {
		branches = append(branches, liveFlow(zeroVec()))
	}
	return prefixFlow(pre, joinBranches(branches))
}

func (e *evaluator) evalFor(s *ast.ForStmt) flow {
	pre := zeroVec()
	if s.Init != nil {
		pre = e.evalStmt(s.Init).cont
	}
	cond := zeroVec()
	if s.Cond != nil {
		cond = e.evalExpr(s.Cond)
	}
	post := zeroVec()
	if s.Post != nil {
		post = e.evalStmt(s.Post).cont
	}
	body := e.evalStmt(s.Body)
	perIter := addVec(cond, maxVec(addVec(body.cont, post), body.exit))

	bound, haveBound := e.forBound(s)
	var total CostVec
	switch {
	case !body.live && !mayContinue(s.Body):
		// Every path through the body leaves the loop, so it runs at
		// most once. Uncontended, `if ctx.CAS(...) { break }` is such a
		// body: the CAS succeeds and forces the break.
		total = addVec(pre, addVec(cond, body.exit))
	case haveBound:
		total = addVec(pre, addVec(scaleVec(bound, perIter), cond))
	case perIter.isZero():
		total = pre
	case s.Cond == nil && e.mode == modeUncontended:
		// Bare retry loop, solo execution: one iteration.
		total = addVec(pre, perIter)
	case s.Cond == nil:
		pos := e.fset().Position(s.Pos())
		total = addVec(pre, unboundedWhereNonzero(perIter,
			fmt.Sprintf("unbounded retry loop at %s:%d", pathTail(pos.Filename), pos.Line)))
	default:
		pos := e.fset().Position(s.Pos())
		total = addVec(pre, unboundedWhereNonzero(perIter,
			fmt.Sprintf("loop bound not inferable at %s:%d (annotate //tradeoffvet:loopbound)", pathTail(pos.Filename), pos.Line)))
	}
	// A return inside the body costs at most the full loop; the loop
	// statement itself always falls through (break paths included).
	return flow{cont: total, live: true}
}

// mayContinue reports whether body holds a continue or goto, which could
// start another iteration of an enclosing loop. Function literals run
// elsewhere and are skipped; a continue of a nested loop counts, which is
// conservative.
func mayContinue(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.CONTINUE || n.Tok == token.GOTO {
				found = true
			}
		}
		return !found
	})
	return found
}

func (e *evaluator) evalRange(s *ast.RangeStmt) flow {
	pre := e.evalExpr(s.X) // the range expression is evaluated once
	body := e.evalStmt(s.Body)
	perIter := maxVec(body.cont, body.exit)

	bound, haveBound := e.rangeBound(s)
	var total CostVec
	switch {
	case perIter.isZero():
		total = pre
	case haveBound:
		total = addVec(pre, scaleVec(bound, perIter))
	default:
		pos := e.fset().Position(s.Pos())
		total = addVec(pre, unboundedWhereNonzero(perIter,
			fmt.Sprintf("range bound not inferable at %s:%d (annotate //tradeoffvet:loopbound or //tradeoffvet:param on the field)", pathTail(pos.Filename), pos.Line)))
	}
	return flow{cont: total, live: true}
}

// unboundedWhereNonzero lifts each nonzero class of v to unbounded: a loop
// without a bound makes only the classes its body touches unbounded.
func unboundedWhereNonzero(v CostVec, reason string) CostVec {
	lift := func(c Cost) Cost {
		if c.IsZero() {
			return c
		}
		return unboundedCost(reason)
	}
	return CostVec{Reads: lift(v.Reads), Writes: lift(v.Writes), CAS: lift(v.CAS)}
}

func pathTail(filename string) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		return filename[i+1:]
	}
	return filename
}

// forBound resolves a for statement's iteration bound: an explicit
// //tradeoffvet:loopbound annotation, a constant three-clause limit, or a
// limit naming a //tradeoffvet:param-annotated field.
func (e *evaluator) forBound(s *ast.ForStmt) (Cost, bool) {
	if c, ok := e.loopboundAnnotation(s.Pos()); ok {
		return c, true
	}
	if s.Cond == nil {
		return Cost{}, false
	}
	cmp, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok {
		return Cost{}, false
	}
	loopVar := forLoopVar(s)
	if loopVar == "" {
		return Cost{}, false
	}
	var limit ast.Expr
	inclusive := false
	switch cmp.Op {
	case token.LSS, token.LEQ:
		if id, ok := ast.Unparen(cmp.X).(*ast.Ident); ok && id.Name == loopVar {
			limit = cmp.Y
		}
		inclusive = cmp.Op == token.LEQ
	case token.GTR, token.GEQ:
		if id, ok := ast.Unparen(cmp.Y).(*ast.Ident); ok && id.Name == loopVar {
			limit = cmp.X
		}
		inclusive = cmp.Op == token.GEQ
	}
	if limit == nil {
		return Cost{}, false
	}
	return e.limitBound(limit, inclusive, forInitConst(e, s))
}

// forLoopVar returns the induction variable name of a three-clause for.
func forLoopVar(s *ast.ForStmt) string {
	switch post := s.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(post.X).(*ast.Ident); ok {
			return id.Name
		}
	case *ast.AssignStmt:
		if len(post.Lhs) == 1 {
			if id, ok := ast.Unparen(post.Lhs[0]).(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// forInitConst returns the constant initial value of the induction
// variable, or 0 (a conservative floor for the usual i := 0 shape).
func forInitConst(e *evaluator, s *ast.ForStmt) int64 {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || len(init.Rhs) != 1 {
		return 0
	}
	if v, ok := e.constInt(init.Rhs[0]); ok && v > 0 {
		return v
	}
	return 0
}

// limitBound turns the loop limit expression into a Cost: a constant, or a
// symbol from a param-annotated field (x.f, len(x.f)).
func (e *evaluator) limitBound(limit ast.Expr, inclusive bool, initVal int64) (Cost, bool) {
	if v, ok := e.constInt(limit); ok {
		iters := v - initVal
		if inclusive {
			iters++
		}
		if iters < 0 {
			iters = 0
		}
		return constCost(iters), true
	}
	if sym, ok := e.paramSymbol(limit); ok {
		c := symbolCost(sym)
		if inclusive {
			c = addCost(c, constCost(1))
		}
		return c, true
	}
	return Cost{}, false
}

// rangeBound resolves a range statement's iteration bound: a loopbound
// annotation, a param-annotated field, or a constant-length array.
func (e *evaluator) rangeBound(s *ast.RangeStmt) (Cost, bool) {
	if c, ok := e.loopboundAnnotation(s.Pos()); ok {
		return c, true
	}
	if sym, ok := e.paramSymbol(s.X); ok {
		return symbolCost(sym), true
	}
	if t := e.info().TypeOf(s.X); t != nil {
		u := t.Underlying()
		if ptr, ok := u.(*types.Pointer); ok {
			u = ptr.Elem().Underlying()
		}
		if arr, ok := u.(*types.Array); ok {
			return constCost(arr.Len()), true
		}
	}
	return Cost{}, false
}

// loopboundAnnotation reads //tradeoffvet:loopbound EXPR on the loop's
// line or the line above.
func (e *evaluator) loopboundAnnotation(pos token.Pos) (Cost, bool) {
	p := e.fset().Position(pos)
	ann := e.cur.pkg.annotationAt("loopbound", p.Filename, p.Line)
	if ann == nil {
		return Cost{}, false
	}
	expr, _, _ := strings.Cut(ann.Args, " ")
	c, err := parseCostExpr(expr)
	if err != nil {
		return unboundedCost(fmt.Sprintf("bad loopbound annotation at %s:%d: %v", pathTail(p.Filename), p.Line, err)), true
	}
	return c, true
}

// paramSymbol resolves x.f or len(x.f) to the symbol a
// //tradeoffvet:param annotation assigns to the field f, looking the
// annotation up in the package that declares the field.
func (e *evaluator) paramSymbol(expr ast.Expr) (string, bool) {
	expr = ast.Unparen(expr)
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := e.info().Uses[id].(*types.Builtin); ok && b.Name() == "len" {
				expr = ast.Unparen(call.Args[0])
			}
		}
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := e.info().Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return "", false
	}
	declPkg := e.prog.byPath[obj.Pkg().Path()]
	if declPkg == nil {
		return "", false
	}
	pos := declPkg.Fset.Position(obj.Pos())
	ann := declPkg.annotationAt("param", pos.Filename, pos.Line)
	if ann == nil {
		return "", false
	}
	sym, _, _ := strings.Cut(ann.Args, " ")
	if sym == "" {
		return "", false
	}
	return sym, true
}

// constInt resolves a compile-time constant integer expression.
func (e *evaluator) constInt(expr ast.Expr) (int64, bool) {
	tv, ok := e.info().Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	s := tv.Value.ExactString()
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

// evalExpr is the cost of evaluating an expression (including any calls
// inside it). Expressions cannot exit early, so the result is a plain
// vector.
func (e *evaluator) evalExpr(x ast.Expr) CostVec {
	switch x := x.(type) {
	case nil:
		return zeroVec()
	case *ast.CallExpr:
		return e.evalCall(x)
	case *ast.ParenExpr:
		return e.evalExpr(x.X)
	case *ast.UnaryExpr:
		return e.evalExpr(x.X)
	case *ast.StarExpr:
		return e.evalExpr(x.X)
	case *ast.BinaryExpr:
		return addVec(e.evalExpr(x.X), e.evalExpr(x.Y))
	case *ast.SelectorExpr:
		return e.evalExpr(x.X)
	case *ast.IndexExpr:
		return addVec(e.evalExpr(x.X), e.evalExpr(x.Index))
	case *ast.SliceExpr:
		c := e.evalExpr(x.X)
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				c = addVec(c, e.evalExpr(idx))
			}
		}
		return c
	case *ast.TypeAssertExpr:
		return e.evalExpr(x.X)
	case *ast.KeyValueExpr:
		return addVec(e.evalExpr(x.Key), e.evalExpr(x.Value))
	case *ast.CompositeLit:
		c := zeroVec()
		for _, elt := range x.Elts {
			c = addVec(c, e.evalExpr(elt))
		}
		return c
	case *ast.FuncLit:
		return zeroVec() // defining a closure costs nothing; calls are charged at call sites
	default:
		// Ident, BasicLit, type expressions.
		return zeroVec()
	}
}

// evalCall is the cost of one call: a Context step, an annotated
// out-of-band cost, a resolvable declaration's summary, or zero for code
// that cannot issue steps. A call that takes a primitive.Context but
// cannot be resolved is unbounded — the interpreter refuses to guess.
func (e *evaluator) evalCall(call *ast.CallExpr) CostVec {
	// An explicit cost override at the call site wins; the annotated cost
	// is attributed to reads (it is almost always "0 amortized...").
	pos := e.fset().Position(call.Pos())
	if ann := e.cur.pkg.annotationAt("cost", pos.Filename, pos.Line); ann != nil {
		expr, _, _ := strings.Cut(ann.Args, " ")
		c, err := parseCostExpr(expr)
		if err != nil {
			return CostVec{Reads: unboundedCost(fmt.Sprintf("bad cost annotation at %s:%d: %v", pathTail(pos.Filename), pos.Line, err))}
		}
		return CostVec{Reads: c}
	}

	// Argument evaluation is charged in every remaining case.
	args := zeroVec()
	for _, a := range call.Args {
		args = addVec(args, e.evalExpr(a))
	}

	// The base objects: one Context.Read/Write/CAS is one step.
	switch e.isContextStep(call) {
	case "Read":
		return addVec(args, CostVec{Reads: constCost(1)})
	case "Write":
		return addVec(args, CostVec{Writes: constCost(1)})
	case "CAS":
		return addVec(args, CostVec{CAS: constCost(1)})
	case "ID":
		return args
	}

	// Conversions and builtins cost their operands.
	if tv, ok := e.info().Types[call.Fun]; ok && tv.IsType() {
		return args
	}
	if obj := e.calleeObject(call); obj != nil {
		if _, ok := obj.(*types.Builtin); ok {
			return args
		}
		if fn, ok := obj.(*types.Func); ok {
			if key := objFuncKey(fn); key != "" {
				if pf := e.prog.funcs[key]; pf != nil {
					return addVec(args, e.summary(pf))
				}
			}
			// Statically known function with no loaded declaration, or an
			// interface method: only dangerous if a Context flows in.
			if e.callPassesContext(call, obj.Type()) {
				return addVec(args, unboundedVec(fmt.Sprintf("unresolvable call to %s takes a primitive.Context at %s:%d", fn.Name(), pathTail(pos.Filename), pos.Line)))
			}
			return args
		}
	}
	// Func-typed value (closure, field): same Context criterion.
	if e.callPassesContext(call, e.info().TypeOf(call.Fun)) {
		return addVec(args, unboundedVec(fmt.Sprintf("dynamic call takes a primitive.Context at %s:%d", pathTail(pos.Filename), pos.Line)))
	}
	return args
}

// calleeObject resolves the called identifier to its object.
func (e *evaluator) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return e.info().Uses[fun]
	case *ast.SelectorExpr:
		return e.info().Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return e.info().Uses[id]
		}
	}
	return nil
}

// isContextStep reports which primitive.Context method a call invokes
// ("" when it is not a Context method call).
func (e *evaluator) isContextStep(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := e.info().Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if !isPrimitiveContext(sig.Recv().Type()) {
		return ""
	}
	switch obj.Name() {
	case "Read", "Write", "CAS", "ID":
		return obj.Name()
	}
	return ""
}

// isPrimitiveContext reports whether t is primitive.Context.
func isPrimitiveContext(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Context" && isPrimitivePackage(named.Obj().Pkg().Path())
}

// callPassesContext reports whether any argument (or the callee type
// itself) is a primitive.Context: such a call could issue steps the
// summary cannot see.
func (e *evaluator) callPassesContext(call *ast.CallExpr, funType types.Type) bool {
	for _, a := range call.Args {
		if t := e.info().TypeOf(a); t != nil && isPrimitiveContext(t) {
			return true
		}
	}
	if sig, ok := funType.(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if isPrimitiveContext(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	return false
}
