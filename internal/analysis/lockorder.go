package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder enforces the documented lock hierarchy:
//
//  1. DB.mu            lifecycle RWMutex (facade)
//  2. document lock    per-document RWMutex from Store.lockFor
//  3. Store.wmu        store-wide writer mutex
//  4. Segment.allocMu  allocator mutex (serializes device growth)
//  5. Frame latch      per-frame latch (Latch/RLatch or Frame.latch)
//
// A function may acquire a level only while holding strictly lower
// levels. The analyzer computes a per-function summary of the levels
// the function (transitively) acquires — iterated to a fixpoint within
// the package, exported as facts across packages — and flags any
// acquisition or call that inverts the hierarchy, plus re-acquisition
// of a held single-instance level (1, 3, 4; document locks and frame
// latches are multi-instance: ImportXMLBatch legitimately takes many
// document locks in sorted order). Wrapper helpers (Store.View/Mutate/
// runOp, DB.view/viewE) are modeled: a function literal passed to
// Mutate is analyzed as holding the document lock and wmu. Goroutine
// bodies start with an empty held set; deferred unlocks do not release
// early.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "check lock/latch acquisitions against the engine lock " +
		"hierarchy (DB.mu → document lock → wmu → allocMu → frame latch)",
	Run: runLockorder,
}

// Hierarchy levels. Zero means "not a tracked lock".
const (
	lvlLifecycle = 1 // natix.DB.mu
	lvlDocument  = 2 // docstore per-document lock
	lvlWriter    = 3 // docstore.Store.wmu
	lvlAlloc     = 4 // segment.Segment.allocMu
	lvlLatch     = 5 // buffer.Frame latch
)

var lvlName = map[int]string{
	lvlLifecycle: "DB.mu (level 1)",
	lvlDocument:  "document lock (level 2)",
	lvlWriter:    "writer mutex wmu (level 3)",
	lvlAlloc:     "segment allocMu (level 4)",
	lvlLatch:     "frame latch (level 5)",
}

// singleInstance marks levels with exactly one lock object, where
// re-acquisition is a self-deadlock rather than a legitimate
// multi-lock protocol.
var singleInstance = map[int]bool{lvlLifecycle: true, lvlWriter: true, lvlAlloc: true}

const lockFactPrefix = "lockorder:"

func runLockorder(pass *Pass) error {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	local := make(map[string][]int)
	// Fixpoint over the package's call graph: summaries only grow, so
	// iteration count is bounded by functions × levels.
	for range len(fns) + 2 {
		changed := false
		for _, fd := range fns {
			full := declFullName(pass, fd)
			if full == "" {
				continue
			}
			sum := lockAnalyzeFunc(pass, fd, local, false)
			if !equalIntSlice(local[full], sum) {
				local[full] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range fns {
		lockAnalyzeFunc(pass, fd, local, true)
	}
	for full, levels := range local {
		pass.Facts.Set(pass.PkgPath, lockFactPrefix+full, levels)
	}
	return nil
}

func declFullName(pass *Pass, fd *ast.FuncDecl) string {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return obj.FullName()
}

func equalIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lockAnalyzeFunc(pass *Pass, fd *ast.FuncDecl, local map[string][]int, report bool) []int {
	w := &loWalker{
		pass:     pass,
		local:    local,
		report:   report,
		collect:  true,
		acquires: make(map[int]bool),
		docVars:  make(map[types.Object]bool),
	}
	w.stmt(fd.Body)
	levels := make([]int, 0, len(w.acquires))
	for l := range w.acquires {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	return levels
}

type loWalker struct {
	pass   *Pass
	local  map[string][]int
	report bool
	// collect folds acquisitions into the summary; false inside
	// goroutine and deferred bodies, whose acquisitions happen outside
	// the caller's lock scope.
	collect bool
	// ignoreReleases is set inside deferred bodies: their unlocks run
	// at function exit, not at the defer statement.
	ignoreReleases bool

	held     []int
	heldPos  []token.Pos
	acquires map[int]bool
	docVars  map[types.Object]bool
}

func (w *loWalker) maxHeld() (int, token.Pos) {
	m, pos := 0, token.NoPos
	for i, l := range w.held {
		if l >= m {
			m, pos = l, w.heldPos[i]
		}
	}
	return m, pos
}

func (w *loWalker) holds(l int) bool {
	for _, h := range w.held {
		if h == l {
			return true
		}
	}
	return false
}

func (w *loWalker) acquire(l int, pos token.Pos) {
	if w.report {
		if m, mpos := w.maxHeld(); m > l {
			w.pass.Reportf(pos, "%s acquired while %s is held (acquired at %s); the lock hierarchy requires lower levels first",
				lvlName[l], lvlName[m], w.pass.Fset.Position(mpos))
		} else if singleInstance[l] && w.holds(l) {
			w.pass.Reportf(pos, "%s re-acquired while already held: self-deadlock", lvlName[l])
		}
	}
	w.held = append(w.held, l)
	w.heldPos = append(w.heldPos, pos)
	if w.collect {
		w.acquires[l] = true
	}
}

func (w *loWalker) release(l int) {
	if w.ignoreReleases {
		return
	}
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == l {
			w.held = append(w.held[:i], w.held[i+1:]...)
			w.heldPos = append(w.heldPos[:i], w.heldPos[i+1:]...)
			return
		}
	}
}

// checkSummary applies a callee's acquisition summary at a call site.
func (w *loWalker) checkSummary(levels []int, pos token.Pos, what string) {
	for _, l := range levels {
		if w.report {
			if m, mpos := w.maxHeld(); m > l {
				w.pass.Reportf(pos, "call to %s acquires %s while %s is held (acquired at %s)",
					what, lvlName[l], lvlName[m], w.pass.Fset.Position(mpos))
			} else if singleInstance[l] && w.holds(l) {
				w.pass.Reportf(pos, "call to %s re-acquires %s, which is already held: self-deadlock", what, lvlName[l])
			}
		}
		if w.collect {
			w.acquires[l] = true
		}
	}
}

func (w *loWalker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.trackDocVars(vs.Names, vs.Values)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.CommClause:
		w.stmt(s.Comm)
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.DeferStmt:
		w.deferCall(s.Call)
	case *ast.GoStmt:
		w.goCall(s.Call)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

// assign tracks `l := s.lockFor(name)` so later l.Lock() classifies as
// a document lock, then scans normally.
func (w *loWalker) assign(s *ast.AssignStmt) {
	if w.trackDocVars(identList(s.Lhs), s.Rhs) {
		return
	}
	for _, r := range s.Rhs {
		w.expr(r)
	}
	for _, l := range s.Lhs {
		w.expr(l)
	}
}

func identList(exprs []ast.Expr) []*ast.Ident {
	ids := make([]*ast.Ident, 0, len(exprs))
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		ids = append(ids, id)
	}
	return ids
}

func (w *loWalker) trackDocVars(names []*ast.Ident, values []ast.Expr) bool {
	if len(names) != 1 || len(values) != 1 {
		return false
	}
	call, ok := values[0].(*ast.CallExpr)
	if !ok || !w.isLockForCall(call) {
		return false
	}
	if obj := objectOf(w.pass.Info, names[0]); obj != nil {
		w.docVars[obj] = true
	}
	for _, a := range call.Args {
		w.expr(a)
	}
	return true
}

func (w *loWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return w.call(n)
		case *ast.FuncLit:
			// A stray literal (assigned to a variable, returned):
			// analyze against the current held set — in this codebase
			// such closures run in the scope that defines them — but
			// keep its acquisitions out of the enclosing summary.
			w.walkNested(n.Body, w.held, w.heldPos, false, false)
			return false
		}
		return true
	})
}

// call classifies one call expression. Returns whether ast.Inspect
// should descend into it.
func (w *loWalker) call(call *ast.CallExpr) bool {
	// Immediately-invoked literal: inline code.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.expr(a)
		}
		w.walkInline(lit.Body)
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if l, isAcquire, ok := w.classifyLockOp(sel); ok {
			if isAcquire {
				w.acquire(l, call.Pos())
			} else {
				w.release(l)
			}
			for _, a := range call.Args {
				w.expr(a)
			}
			return false
		}
	}
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return true
	}
	if implied, ok := w.wrapperLevels(fn); ok {
		var lit *ast.FuncLit
		for _, a := range call.Args {
			if fl, isLit := a.(*ast.FuncLit); isLit {
				lit = fl
			} else {
				w.expr(a)
			}
		}
		for _, l := range implied {
			w.acquire(l, call.Pos())
		}
		if lit != nil {
			w.walkInline(lit.Body)
		}
		for _, l := range implied {
			w.release(l)
		}
		return false
	}
	if sum := w.summaryOf(fn); len(sum) > 0 {
		w.checkSummary(sum, call.Pos(), fn.Name())
	}
	return true
}

// walkInline runs a nested body in the current context: same held
// stack, same summary.
func (w *loWalker) walkInline(body *ast.BlockStmt) {
	w.stmt(body)
}

// walkNested analyzes a nested body with its own context.
func (w *loWalker) walkNested(body *ast.BlockStmt, held []int, heldPos []token.Pos, collect, ignoreReleases bool) {
	nw := &loWalker{
		pass:           w.pass,
		local:          w.local,
		report:         w.report,
		collect:        collect,
		ignoreReleases: ignoreReleases,
		held:           append([]int(nil), held...),
		heldPos:        append([]token.Pos(nil), heldPos...),
		acquires:       w.acquires,
		docVars:        w.docVars,
	}
	nw.stmt(body)
}

func (w *loWalker) goCall(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// A goroutine starts with nothing held, whatever the spawner
		// holds; its acquisitions are not the spawner's.
		w.walkNested(lit.Body, nil, nil, false, false)
	}
}

func (w *loWalker) deferCall(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isAcquire, ok := w.classifyLockOp(sel); ok && !isAcquire {
			// defer mu.Unlock(): held until function exit.
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// A deferred body runs at exit with the current locks still
		// held; its own unlocks must not release them here.
		w.walkNested(lit.Body, w.held, w.heldPos, false, true)
	}
}

// classifyLockOp recognizes Lock/RLock/TryLock/TryRLock and
// Unlock/RUnlock on tracked lock objects, plus Latch/RLatch and
// Unlatch/RUnlatch on buffer.Frame.
func (w *loWalker) classifyLockOp(sel *ast.SelectorExpr) (level int, isAcquire, ok bool) {
	switch sel.Sel.Name {
	case "Latch", "RLatch":
		if isNamed(w.pass.Info, sel.X, "internal/buffer", "Frame") {
			return lvlLatch, true, true
		}
	case "Unlatch", "RUnlatch":
		if isNamed(w.pass.Info, sel.X, "internal/buffer", "Frame") {
			return lvlLatch, false, true
		}
	case "Lock", "RLock", "TryLock", "TryRLock":
		if l, ok := w.lockLevel(sel.X); ok {
			return l, true, true
		}
	case "Unlock", "RUnlock":
		if l, ok := w.lockLevel(sel.X); ok {
			return l, false, true
		}
	}
	return 0, false, false
}

// lockLevel maps the receiver of a mutex method to a hierarchy level.
func (w *loWalker) lockLevel(x ast.Expr) (int, bool) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		field := x.Sel.Name
		switch {
		case field == "mu" && isNamedPath(w.pass.Info, x.X, w.pass.ModulePath, "DB"):
			return lvlLifecycle, true
		case field == "wmu" && isNamed(w.pass.Info, x.X, "internal/docstore", "Store"):
			return lvlWriter, true
		case field == "allocMu" && isNamed(w.pass.Info, x.X, "internal/segment", "Segment"):
			return lvlAlloc, true
		case field == "latch" && isNamed(w.pass.Info, x.X, "internal/buffer", "Frame"):
			return lvlLatch, true
		}
	case *ast.Ident:
		if obj := objectOf(w.pass.Info, x); obj != nil && w.docVars[obj] {
			return lvlDocument, true
		}
	case *ast.CallExpr:
		if w.isLockForCall(x) {
			return lvlDocument, true
		}
	}
	return 0, false
}

func (w *loWalker) isLockForCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "lockFor" {
		return false
	}
	fn := calleeFunc(w.pass.Info, call)
	return fn != nil && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/docstore")
}

// wrapperLevels models the helpers that run a callback under locks.
func (w *loWalker) wrapperLevels(fn *types.Func) ([]int, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil, false
	}
	path := pkg.Path()
	if strings.HasSuffix(path, "internal/docstore") {
		switch fn.Name() {
		case "View":
			return []int{lvlDocument}, true
		case "Mutate":
			return []int{lvlDocument, lvlWriter}, true
		case "runOp":
			return nil, true // logging bracket, no tracked locks
		}
	}
	if path == w.pass.ModulePath {
		switch fn.Name() {
		case "view", "viewE":
			return []int{lvlLifecycle}, true
		}
	}
	return nil, false
}

func (w *loWalker) summaryOf(fn *types.Func) []int {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	full := fn.FullName()
	if pkg.Path() == w.pass.PkgPath {
		return w.local[full]
	}
	if v, ok := w.pass.Facts.Get(pkg.Path(), lockFactPrefix+full); ok {
		levels, _ := v.([]int)
		return levels
	}
	return nil
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// or nil for function values and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isNamed reports whether e's type (through pointers) is the named
// type typeName declared in a package whose path ends with pathSuffix.
func isNamed(info *types.Info, e ast.Expr, pathSuffix, typeName string) bool {
	name, path, ok := namedTypeOf(info, e)
	return ok && name == typeName && strings.HasSuffix(path, pathSuffix)
}

// isNamedPath is isNamed with an exact package-path match (for the
// module root package, where a suffix match would be too loose).
func isNamedPath(info *types.Info, e ast.Expr, pkgPath, typeName string) bool {
	name, path, ok := namedTypeOf(info, e)
	return ok && name == typeName && path == pkgPath
}

func namedTypeOf(info *types.Info, e ast.Expr) (name, pkgPath string, ok bool) {
	tv, found := info.Types[e]
	if !found || tv.Type == nil {
		return "", "", false
	}
	t := types.Unalias(tv.Type)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(p.Elem())
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Name(), obj.Pkg().Path(), true
}
