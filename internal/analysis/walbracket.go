package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Walbracket enforces the PR 5 WAL bracket rule: every
// buffer.Frame.BeginUpdate (whole-page or with declared windows — the
// arguments do not matter to the rule) or BeginShift must be consumed by exactly one
// EndUpdate/CancelUpdate on every path out of the enclosing function —
// early returns and panics included — and never closed twice. The
// check is a small flow-sensitive interpretation of the function body
// (the same shape as the stock lostcancel analyzer): each local holding
// an Update token is tracked through open → closed, branches are
// explored separately and merged, and any path that can leave the
// function with an open token is reported. A token that escapes the
// local frame (stored in a struct, captured mutably, passed to another
// function) stops being tracked rather than guessed at.
var Walbracket = &Analyzer{
	Name: "walbracket",
	Doc: "check that every Frame.BeginUpdate is closed by exactly one " +
		"EndUpdate or CancelUpdate on every path out of the function",
	Run: runWalbracket,
}

func runWalbracket(pass *Pass) error {
	w := &wbChecker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				// Function literals are checked as functions in their
				// own right; the enclosing function's walk treats any
				// captured token as escaped.
				w.checkFunc(fn.Body)
			}
			return true
		})
	}
	return nil
}

type wbState int

const (
	wbOpen wbState = iota
	wbClosed
	wbEscaped // no longer tracked; assume the code knows what it's doing
)

type wbInfo struct {
	state wbState
	begin token.Pos
}

type wbEnv struct {
	vars       map[types.Object]*wbInfo
	terminated bool
}

func (e *wbEnv) clone() *wbEnv {
	out := &wbEnv{vars: make(map[types.Object]*wbInfo, len(e.vars)), terminated: e.terminated}
	for obj, info := range e.vars {
		cp := *info
		out.vars[obj] = &cp
	}
	return out
}

// mergeEnvs joins two branch outcomes. A terminated branch contributes
// nothing to the fallthrough state; diverging states degrade to
// escaped so a genuinely-closed-on-one-side token is not re-reported
// on the other.
func mergeEnvs(a, b *wbEnv) *wbEnv {
	if a.terminated && b.terminated {
		return a
	}
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	out := &wbEnv{vars: make(map[types.Object]*wbInfo)}
	for obj, ia := range a.vars {
		cp := *ia
		if ib, ok := b.vars[obj]; ok && ib.state != ia.state {
			cp.state = wbEscaped
		}
		out.vars[obj] = &cp
	}
	for obj, ib := range b.vars {
		if _, ok := a.vars[obj]; !ok {
			cp := *ib
			out.vars[obj] = &cp
		}
	}
	return out
}

type wbChecker struct {
	pass *Pass
}

func (w *wbChecker) checkFunc(body *ast.BlockStmt) {
	env := &wbEnv{vars: make(map[types.Object]*wbInfo)}
	w.stmt(body, env)
	w.checkExit(env, body.Rbrace, "the end of the function")
}

// checkExit reports tokens still open when control leaves the function
// at pos.
func (w *wbChecker) checkExit(env *wbEnv, pos token.Pos, what string) {
	if env.terminated {
		return
	}
	for obj, info := range env.vars {
		if info.state == wbOpen {
			w.pass.Reportf(pos, "WAL update %q (BeginUpdate at %s) is still open at %s; close it with EndUpdate or CancelUpdate on every path",
				obj.Name(), w.shortPos(info.begin), what)
			info.state = wbEscaped // report each leak once
		}
	}
}

func (w *wbChecker) shortPos(pos token.Pos) string {
	p := w.pass.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func (w *wbChecker) stmt(s ast.Stmt, env *wbEnv) {
	if s == nil || env.terminated {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if env.terminated {
				break
			}
			w.stmt(st, env)
		}
	case *ast.ExprStmt:
		w.expr(s.X, env)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(call) {
			w.checkExit(env, s.Pos(), "this panic")
			env.terminated = true
		}
	case *ast.AssignStmt:
		w.assign(s, env)
	case *ast.DeclStmt:
		w.declStmt(s, env)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, env)
		}
		w.checkExit(env, s.Pos(), "this return")
		env.terminated = true
	case *ast.IfStmt:
		w.stmt(s.Init, env)
		w.expr(s.Cond, env)
		thenEnv := env.clone()
		w.stmt(s.Body, thenEnv)
		elseEnv := env.clone()
		w.stmt(s.Else, elseEnv)
		*env = *mergeEnvs(thenEnv, elseEnv)
	case *ast.ForStmt:
		w.stmt(s.Init, env)
		w.expr(s.Cond, env)
		w.loopBody(s.Body, s.Post, env)
	case *ast.RangeStmt:
		w.expr(s.X, env)
		w.loopBody(s.Body, nil, env)
	case *ast.SwitchStmt:
		w.stmt(s.Init, env)
		w.expr(s.Tag, env)
		w.caseBranches(s.Body, env)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, env)
		w.caseBranches(s.Body, env)
	case *ast.SelectStmt:
		w.selectBranches(s.Body, env)
	case *ast.DeferStmt:
		w.deferStmt(s, env)
	case *ast.GoStmt:
		w.expr(s.Call, env)
	case *ast.BranchStmt:
		// break/continue/goto leave the linear model; stop tracking
		// anything open rather than reporting a false leak.
		for _, info := range env.vars {
			if info.state == wbOpen {
				info.state = wbEscaped
			}
		}
		env.terminated = true
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, env)
	case *ast.SendStmt:
		w.expr(s.Chan, env)
		w.expr(s.Value, env)
	case *ast.IncDecStmt:
		w.expr(s.X, env)
	}
}

// loopBody analyzes a loop body against a clone of the environment. A
// token opened inside the body must be closed by the end of the body
// (otherwise the next iteration re-begins over an open token); tokens
// from outside whose state the body changes degrade to escaped, since
// the loop may run zero or many times.
func (w *wbChecker) loopBody(body *ast.BlockStmt, post ast.Stmt, env *wbEnv) {
	be := env.clone()
	be.terminated = false
	w.stmt(body, be)
	if post != nil && !be.terminated {
		w.stmt(post, be)
	}
	if !be.terminated {
		for obj, info := range be.vars {
			pre := env.vars[obj]
			if info.state == wbOpen && (pre == nil || pre.state != wbOpen) {
				w.pass.Reportf(info.begin, "WAL update %q begun in a loop body is still open at the end of the body", obj.Name())
				info.state = wbEscaped
			}
		}
	}
	for obj, pre := range env.vars {
		if be.terminated {
			break
		}
		if info, ok := be.vars[obj]; ok && info.state != pre.state {
			pre.state = wbEscaped
		}
	}
}

// caseBranches analyzes each case clause of a switch against its own
// clone and merges the outcomes; without a default clause, the
// fallthrough state (no case matched) joins the merge.
func (w *wbChecker) caseBranches(body *ast.BlockStmt, env *wbEnv) {
	var outs []*wbEnv
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.expr(e, env)
		}
		ce := env.clone()
		for _, st := range cc.Body {
			if ce.terminated {
				break
			}
			w.stmt(st, ce)
		}
		outs = append(outs, ce)
	}
	if !hasDefault {
		outs = append(outs, env.clone())
	}
	w.mergeInto(env, outs)
}

func (w *wbChecker) selectBranches(body *ast.BlockStmt, env *wbEnv) {
	var outs []*wbEnv
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		ce := env.clone()
		if cc.Comm != nil {
			w.stmt(cc.Comm, ce)
		}
		for _, st := range cc.Body {
			if ce.terminated {
				break
			}
			w.stmt(st, ce)
		}
		outs = append(outs, ce)
	}
	if len(outs) == 0 {
		return
	}
	w.mergeInto(env, outs)
}

func (w *wbChecker) mergeInto(env *wbEnv, outs []*wbEnv) {
	if len(outs) == 0 {
		return
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = mergeEnvs(merged, o)
	}
	*env = *merged
}

// assign handles `u := f.BeginUpdate()` (start tracking), re-begins
// over an open token, and overwrites of a tracked variable.
func (w *wbChecker) assign(s *ast.AssignStmt, env *wbEnv) {
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && w.isBegin(call) {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				w.expr(sel.X, env)
			}
			if len(s.Lhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if id.Name == "_" {
						w.pass.Reportf(s.Pos(), "result of BeginUpdate is discarded; the token must be closed with EndUpdate or CancelUpdate")
						return
					}
					if obj := w.objOf(id); obj != nil {
						if info := env.vars[obj]; info != nil && info.state == wbOpen {
							w.pass.Reportf(s.Pos(), "WAL update %q re-begun while still open (BeginUpdate at %s)", id.Name, w.shortPos(info.begin))
						}
						env.vars[obj] = &wbInfo{state: wbOpen, begin: s.Pos()}
						return
					}
				}
			}
			// Stored into something we cannot track (field, tuple,
			// index): the token escapes the local frame.
			for _, l := range s.Lhs {
				w.expr(l, env)
			}
			return
		}
	}
	for _, r := range s.Rhs {
		w.expr(r, env)
	}
	for _, l := range s.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := w.objOf(id); obj != nil {
				if info := env.vars[obj]; info != nil {
					if info.state == wbOpen {
						w.pass.Reportf(s.Pos(), "WAL update %q overwritten while still open (BeginUpdate at %s)", id.Name, w.shortPos(info.begin))
					}
					info.state = wbEscaped
				}
				continue
			}
		}
		w.expr(l, env)
	}
}

func (w *wbChecker) declStmt(s *ast.DeclStmt, env *wbEnv) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Names) == 1 && len(vs.Values) == 1 {
			if call, ok := vs.Values[0].(*ast.CallExpr); ok && w.isBegin(call) {
				if obj := w.objOf(vs.Names[0]); obj != nil {
					env.vars[obj] = &wbInfo{state: wbOpen, begin: vs.Pos()}
					continue
				}
			}
		}
		for _, v := range vs.Values {
			w.expr(v, env)
		}
	}
}

// deferStmt gives `defer f.EndUpdate(u)` — directly or via a literal —
// closed-on-all-exits semantics.
func (w *wbChecker) deferStmt(s *ast.DeferStmt, env *wbEnv) {
	if name, arg := w.closeCall(s.Call); name != "" && arg != nil {
		if obj := w.objOf(arg); obj != nil {
			if info := env.vars[obj]; info != nil {
				info.state = wbClosed
				return
			}
		}
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		closes, uses := w.litEffects(lit)
		for obj := range closes {
			if info := env.vars[obj]; info != nil {
				info.state = wbClosed
			}
		}
		for obj := range uses {
			if closes[obj] {
				continue
			}
			if info := env.vars[obj]; info != nil && info.state == wbOpen {
				info.state = wbEscaped
			}
		}
		for _, a := range s.Call.Args {
			w.expr(a, env)
		}
		return
	}
	w.expr(s.Call, env)
}

// litEffects summarizes a function literal from the outside: which
// tracked objects it closes, and which it otherwise references.
func (w *wbChecker) litEffects(lit *ast.FuncLit) (closes, uses map[types.Object]bool) {
	closes = make(map[types.Object]bool)
	uses = make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, arg := w.closeCall(call); name != "" && arg != nil {
				if obj := w.objOf(arg); obj != nil {
					closes[obj] = true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						if obj := w.objOf(id); obj != nil {
							uses[obj] = true
						}
					}
				}
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.objOf(id); obj != nil {
				uses[obj] = true
			}
		}
		return true
	})
	return closes, uses
}

// expr scans an expression for close calls, stray BeginUpdate calls,
// and uses that make a tracked token escape.
func (w *wbChecker) expr(e ast.Expr, env *wbEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, arg := w.closeCall(n); name != "" && arg != nil {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					w.expr(sel.X, env)
				}
				if obj := w.objOf(arg); obj != nil {
					if info := env.vars[obj]; info != nil {
						switch info.state {
						case wbClosed:
							w.pass.Reportf(n.Pos(), "WAL update %q closed twice (%s after an earlier EndUpdate/CancelUpdate)", arg.Name, name)
						case wbOpen:
							info.state = wbClosed
						}
					}
				}
				return false
			}
			if w.isBegin(n) {
				w.pass.Reportf(n.Pos(), "result of BeginUpdate must be assigned to a local variable so the bracket can be verified")
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					w.expr(sel.X, env)
				}
				return false
			}
		case *ast.FuncLit:
			// A literal that captures an open token makes it escape;
			// the literal's own body is analyzed separately.
			_, uses := w.litEffects(n)
			for obj := range uses {
				if info := env.vars[obj]; info != nil && info.state == wbOpen {
					info.state = wbEscaped
				}
			}
			return false
		case *ast.Ident:
			if obj := w.objOf(n); obj != nil {
				if info := env.vars[obj]; info != nil && info.state == wbOpen {
					info.state = wbEscaped
				}
			}
		}
		return true
	})
}

// closeCall recognizes f.EndUpdate(u) / f.CancelUpdate(u) on a
// buffer.Frame with a plain identifier argument.
func (w *wbChecker) closeCall(call *ast.CallExpr) (string, *ast.Ident) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	name := sel.Sel.Name
	if name != "EndUpdate" && name != "CancelUpdate" {
		return "", nil
	}
	if !w.isFrameMethod(sel) || len(call.Args) != 1 {
		return "", nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return name, nil
	}
	return name, arg
}

// isBegin reports whether call opens a bracket: Frame.BeginUpdate or its
// shift-declaring form Frame.BeginShift, which hands out the same token.
func (w *wbChecker) isBegin(call *ast.CallExpr) bool {
	return w.isFrameCall(call, "BeginUpdate") || w.isFrameCall(call, "BeginShift")
}

func (w *wbChecker) isFrameCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return w.isFrameMethod(sel)
}

// isFrameMethod reports whether sel selects a method on
// natix/internal/buffer.Frame (directly or through a pointer).
func (w *wbChecker) isFrameMethod(sel *ast.SelectorExpr) bool {
	tv, ok := w.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Frame" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/buffer")
}

func (w *wbChecker) objOf(id *ast.Ident) types.Object {
	if o := w.pass.Info.Uses[id]; o != nil {
		return o
	}
	return w.pass.Info.Defs[id]
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
