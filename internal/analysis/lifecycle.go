package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lifecycle returns the interprocedural analyzer pairing resource acquires
// with their releases across function boundaries.
//
// noleak (which Lifecycle strengthens, and whose goroutine checks stay in
// force) looks at one spawn site at a time; the leaks that actually bite —
// the tuner's epoch loop, the proxy's per-connection shuttles, the
// coalescer's flight cancellation — pair an acquire in one function with a
// release in another. Lifecycle checks three such pairings module-wide:
//
//   - sync.WaitGroup.Add must have a matching Done on the same WaitGroup.
//     "Same" is resolved interprocedurally: a WaitGroup (or pointer to one)
//     passed as a call argument aliases the callee's parameter, so
//     `wg.Add(1); go worker(&wg)` pairs with worker's `defer wg.Done()`.
//     Struct-field WaitGroups are matched per field (all instances of the
//     type share one identity) — coarse, but sound for leak detection.
//   - time.NewTicker / time.NewTimer results must be stopped: a Stop
//     reference in the creating function, or — when the value is stored in
//     a struct field — a module-wide <x>.field.Stop; a value handed off
//     whole (argument, return, plain assignment) is trusted to its new
//     owner. Bare time.After is reported outright in library code: its
//     timer cannot be stopped and lingers until it fires.
//   - the cancel function of context.WithCancel/WithTimeout/WithDeadline
//     must be retained and used: discarding it with _ or never referencing
//     it leaks the context's resources; storing it in a struct field is
//     accepted only if some function in the module invokes that field.
//
// Commands (package main) are exempt — a command's lifetime is the
// process's. Findings are silenced with //mrlint:allow lifecycle <reason>.
func Lifecycle() *Analyzer {
	return &Analyzer{
		Name: "lifecycle",
		Doc:  "acquire/release pairing across functions: WaitGroup Add→Done, ticker/timer Stop, context cancel retention",
		Run:  runLifecycle,
	}
}

func runLifecycle(pass *Pass) {
	for _, f := range lifecycleScan(pass.Module).findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// lcFinding is one module-scan finding, tagged with the package that must
// report it (each Pass emits only its own package's findings).
type lcFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

type lcResult struct {
	findings []lcFinding
}

// lifecycleScan runs the module-wide scan once per Run, shared by every
// lifecycle pass through the module memo.
func lifecycleScan(mod *Module) *lcResult {
	return mod.Memo("lifecycle.scan", func() any {
		s := &lcScan{
			mod:          mod,
			uf:           make(map[types.Object]types.Object),
			doneObjs:     make(map[types.Object]bool),
			fieldStops:   make(map[types.Object]bool),
			fieldInvokes: make(map[types.Object]bool),
		}
		for _, pkg := range mod.Pkgs {
			if pkg.Types.Name() == "main" {
				continue
			}
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
						s.scanFunc(pkg, decl)
					}
				}
			}
		}
		s.finish()
		return &s.res
	}).(*lcResult)
}

// lcSite is an acquire site whose verdict is deferred to finish.
type lcSite struct {
	pkg *Package
	pos token.Pos
	obj types.Object
	msg string
}

// lcScan accumulates module-wide lifecycle facts before matching them.
type lcScan struct {
	mod *Module
	res lcResult

	// WaitGroup pairing: union-find over WaitGroup objects (locals, params,
	// fields), aliased through call arguments; Add sites are judged against
	// the union classes once the whole module has been scanned.
	uf       map[types.Object]types.Object
	addSites []lcSite
	doneObjs map[types.Object]bool

	// Field-mediated releases observed anywhere in the module, and the
	// acquire sites waiting on them.
	fieldStops    map[types.Object]bool // fields with a <x>.field.Stop reference
	fieldInvokes  map[types.Object]bool // func-typed fields used outside a store
	pendingTicker []lcSite
	pendingCancel []lcSite
}

func (s *lcScan) report(pkg *Package, pos token.Pos, msg string) {
	s.res.findings = append(s.res.findings, lcFinding{pkg: pkg, pos: pos, msg: msg})
}

func (s *lcScan) find(o types.Object) types.Object {
	for s.uf[o] != nil && s.uf[o] != o {
		o = s.uf[o]
	}
	return o
}

func (s *lcScan) union(a, b types.Object) {
	if a == nil || b == nil {
		return
	}
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.uf[ra] = rb
	}
}

// tickerLocal / cancelLocal are per-function acquire records resolved after
// the function's body has been fully walked.
type tickerLocal struct {
	obj  types.Object
	pos  token.Pos
	what string // "time.NewTicker" / "time.NewTimer"
}

type cancelLocal struct {
	obj  types.Object
	id   *ast.Ident // the defining ident, excluded from use counting
	pos  token.Pos
	what string // "context.WithCancel" etc.
}

func (s *lcScan) scanFunc(pkg *Package, decl *ast.FuncDecl) {
	info := pkg.Info
	cg := s.mod.CallGraph()

	parents := nodeParents(decl.Body)

	var tickers []tickerLocal
	var cancels []cancelLocal
	stopRefs := make(map[types.Object]bool) // v.Stop seen on local/param v
	selBase := make(map[*ast.Ident]bool)    // idents that are the X of a selector
	lhsIdents := make(map[*ast.Ident]bool)  // idents assigned to (any AssignStmt LHS)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				selBase[id] = true
			}
			if n.Sel.Name == "Stop" {
				switch base := unparen(n.X).(type) {
				case *ast.Ident:
					if obj := objFor(info, base); obj != nil {
						stopRefs[obj] = true
					}
				case *ast.SelectorExpr:
					if fobj, ok := info.Uses[base.Sel].(*types.Var); ok {
						s.fieldStops[fobj] = true
					}
				}
			}
			// A func-typed field referenced anywhere but an assignment target
			// counts as a potential invocation (call, defer, handed off).
			if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() {
				if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc && !isAssignTarget(parents, n) {
					s.fieldInvokes[v] = true
				}
			}

		case *ast.CallExpr:
			s.scanCall(pkg, info, cg, n)

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					lhsIdents[id] = true
				}
			}
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, fname := range [...]string{"NewTicker", "NewTimer"} {
				if isPkgFunc(info, call.Fun, "time", fname) && len(n.Lhs) == 1 {
					s.recordTimerAcquire(pkg, info, n.Lhs[0], call.Pos(), "time."+fname, &tickers)
				}
			}
			for _, fname := range [...]string{"WithCancel", "WithTimeout", "WithDeadline"} {
				if isPkgFunc(info, call.Fun, "context", fname) && len(n.Lhs) == 2 {
					s.recordCancelAcquire(pkg, info, n.Lhs[1], call.Pos(), "context."+fname, &cancels)
				}
			}
		}
		return true
	})

	// Judge this function's local ticker/timer and cancel acquires now that
	// every reference in the body has been seen.
	for _, t := range tickers {
		if stopRefs[t.obj] {
			continue
		}
		if escapes(info, decl.Body, t.obj, selBase, lhsIdents) {
			continue // handed off whole; the new owner is responsible
		}
		s.report(pkg, t.pos, t.what+" result "+t.obj.Name()+" is never stopped and never handed off; call Stop (usually deferred)")
	}
	for _, c := range cancels {
		s.judgeCancel(pkg, info, decl.Body, parents, c)
	}
}

// scanCall handles one call expression: WaitGroup method sites, WaitGroup
// argument aliasing, and the time.After ban.
func (s *lcScan) scanCall(pkg *Package, info *types.Info, cg *CallGraph, call *ast.CallExpr) {
	if isPkgFunc(info, call.Fun, "time", "After") {
		s.report(pkg, call.Pos(), "time.After leaks its timer until it fires; use time.NewTimer with a deferred Stop")
	}

	// WaitGroup method call?
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if m, ok := info.Uses[sel.Sel].(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" {
			if recv := m.Type().(*types.Signature).Recv(); recv != nil && isJoinType(recv.Type()) {
				base := refObj(info, sel.X)
				switch m.Name() {
				case "Add":
					if base != nil {
						s.addSites = append(s.addSites, lcSite{pkg: pkg, pos: call.Pos(), obj: base})
					}
				case "Done":
					if base != nil {
						s.doneObjs[base] = true
					}
				}
			}
		}
	}

	// Alias WaitGroup arguments to the callee's parameters, for static
	// callees with a declaration in the module and directly invoked literals.
	var params []types.Object
	switch fun := unwrapCallee(call.Fun).(type) {
	case *ast.FuncLit:
		params = fieldListObjs(info, fun.Type.Params)
	default:
		var obj types.Object
		switch fun := fun.(type) {
		case *ast.Ident:
			obj = info.Uses[fun]
		case *ast.SelectorExpr:
			obj = info.Uses[fun.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		node := cg.Node(fn)
		if node == nil || node.Decl == nil {
			return
		}
		params = fieldListObjs(node.Pkg.Info, node.Decl.Type.Params)
	}
	for i, arg := range call.Args {
		if i >= len(params) || params[i] == nil {
			continue
		}
		at := typeOf(info, arg)
		if at == nil || !isJoinType(at) || !isJoinType(params[i].Type()) {
			continue
		}
		s.union(refObj(info, arg), params[i])
	}
}

// recordTimerAcquire classifies the assignment target of a NewTicker/NewTimer.
func (s *lcScan) recordTimerAcquire(pkg *Package, info *types.Info, lhs ast.Expr, pos token.Pos, what string, tickers *[]tickerLocal) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			s.report(pkg, pos, what+" result is discarded; its goroutine and channel are never stopped")
			return
		}
		if obj := objFor(info, lhs); obj != nil {
			*tickers = append(*tickers, tickerLocal{obj: obj, pos: pos, what: what})
		}
	case *ast.SelectorExpr:
		if fobj, ok := info.Uses[lhs.Sel].(*types.Var); ok && fobj.IsField() {
			s.pendingTicker = append(s.pendingTicker, lcSite{
				pkg: pkg, pos: pos, obj: fobj,
				msg: what + " stored in field " + fobj.Name() + " is never stopped anywhere in the module (no ." + fobj.Name() + ".Stop)",
			})
		}
	}
}

// recordCancelAcquire classifies the cancel-function target of a
// context.WithCancel/WithTimeout/WithDeadline assignment.
func (s *lcScan) recordCancelAcquire(pkg *Package, info *types.Info, lhs ast.Expr, pos token.Pos, what string, cancels *[]cancelLocal) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			s.report(pkg, pos, what+" cancel function is discarded; it must be called to release the context's resources")
			return
		}
		if obj := objFor(info, lhs); obj != nil {
			*cancels = append(*cancels, cancelLocal{obj: obj, id: lhs, pos: pos, what: what})
		}
	case *ast.SelectorExpr:
		if fobj, ok := info.Uses[lhs.Sel].(*types.Var); ok && fobj.IsField() {
			s.pendingCancel = append(s.pendingCancel, lcSite{
				pkg: pkg, pos: pos, obj: fobj,
				msg: what + " cancel function stored in field " + fobj.Name() + " is never invoked anywhere in the module",
			})
		}
	}
}

// judgeCancel decides one local cancel variable: unused, used directly, or
// stored into fields (which defers the verdict to the module-wide scan).
func (s *lcScan) judgeCancel(pkg *Package, info *types.Info, body *ast.BlockStmt, parents map[ast.Node]ast.Node, c cancelLocal) {
	direct := false
	var fields []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == c.id || info.Uses[id] != c.obj {
			return true
		}
		if isBlankAssign(parents, id) {
			return true // `_ = cancel` silences the compiler, not the leak
		}
		if fobj := storedField(info, parents, id); fobj != nil {
			fields = append(fields, fobj)
		} else {
			direct = true // called, deferred, passed or returned
		}
		return true
	})
	switch {
	case direct:
		return
	case len(fields) == 0:
		s.report(pkg, c.pos, c.what+" cancel function "+c.obj.Name()+" is never used; call it (usually deferred) or the context's resources leak")
	default:
		for _, fobj := range fields {
			s.pendingCancel = append(s.pendingCancel, lcSite{
				pkg: pkg, pos: c.pos, obj: fobj,
				msg: c.what + " cancel function stored in field " + fobj.Name() + " is never invoked anywhere in the module",
			})
		}
	}
}

// isBlankAssign reports whether id's use is the RHS of an assignment to _.
func isBlankAssign(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	a, ok := parents[id].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, rhs := range a.Rhs {
		if rhs != ast.Expr(id) || i >= len(a.Lhs) {
			continue
		}
		if l, ok := a.Lhs[i].(*ast.Ident); ok && l.Name == "_" {
			return true
		}
	}
	return false
}

// storedField returns the struct field object id is stored into, if its use
// is a store: the value of a struct-literal key/value pair, or the RHS of an
// assignment whose matching LHS is a field selector. Any other use is direct.
func storedField(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) *types.Var {
	switch p := parents[id].(type) {
	case *ast.KeyValueExpr:
		if p.Value != ast.Expr(id) {
			return nil
		}
		key, ok := p.Key.(*ast.Ident)
		if !ok {
			return nil
		}
		if fobj, ok := info.Uses[key].(*types.Var); ok && fobj.IsField() {
			return fobj
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != ast.Expr(id) || i >= len(p.Lhs) {
				continue
			}
			if sel, ok := unwrapLValue(p.Lhs[i]).(*ast.SelectorExpr); ok {
				if fobj, ok := info.Uses[sel.Sel].(*types.Var); ok && fobj.IsField() {
					return fobj
				}
			}
		}
	}
	return nil
}

// finish matches the accumulated acquire sites against the module-wide
// release facts.
func (s *lcScan) finish() {
	doneRoots := make(map[types.Object]bool, len(s.doneObjs))
	for obj := range s.doneObjs {
		doneRoots[s.find(obj)] = true
	}
	for _, site := range s.addSites {
		if !doneRoots[s.find(site.obj)] {
			s.report(site.pkg, site.pos, "sync.WaitGroup.Add has no matching Done on the same WaitGroup anywhere in the module (checked through argument aliasing); Wait would block forever")
		}
	}
	for _, site := range s.pendingTicker {
		if !s.fieldStops[site.obj] {
			s.report(site.pkg, site.pos, site.msg)
		}
	}
	for _, site := range s.pendingCancel {
		if !s.fieldInvokes[site.obj] {
			s.report(site.pkg, site.pos, site.msg)
		}
	}
}

// escapes reports whether obj is used in body other than as the base of a
// selector or an assignment target: passed as an argument, returned, or
// re-assigned whole — in which case responsibility moves with the value.
func escapes(info *types.Info, body *ast.BlockStmt, obj types.Object, selBase, lhsIdents map[*ast.Ident]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj && !selBase[id] && !lhsIdents[id] {
			found = true
		}
		return true
	})
	return found
}

// isAssignTarget reports whether n is (inside) the LHS of an assignment.
func isAssignTarget(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for cur := n; cur != nil; cur = parents[cur] {
		a, ok := parents[cur].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range a.Lhs {
			if containsNode(lhs, cur) {
				return true
			}
		}
	}
	return false
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// nodeParents builds a child -> parent map for every node under root.
func nodeParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// objFor resolves an ident to its object whether it defines (:=) or uses (=)
// the variable.
func objFor(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// refObj returns the root object an expression refers to, unwrapping parens,
// address-of, dereference and indexing: &p.wg resolves to the wg field object,
// wg to the local. Returns nil for expressions with no stable identity.
func refObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return objFor(info, x)
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		default:
			return nil
		}
	}
}

// fieldListObjs flattens a parameter list to positional objects; an unnamed
// parameter contributes a nil placeholder to keep positions aligned.
func fieldListObjs(info *types.Info, params *ast.FieldList) []types.Object {
	if params == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range params.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range field.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
