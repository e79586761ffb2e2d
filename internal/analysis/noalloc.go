package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// noallocMarker annotates a function whose steady-state path must not
// allocate (the PR 7 discipline, guarded dynamically by
// TestQueryZeroAlloc). Grammar: a `//natix:noalloc` line in the
// function's doc comment. The analyzer then flags AST constructs that
// defeat the discipline; deliberate cold-path allocations (corrupt-
// input errors, arena growth) carry //natix:vet-ignore suppressions.
const noallocMarker = "natix:noalloc"

// Noalloc enforces the zero-allocation discipline on annotated warm-
// path functions: no closures, no map/slice literals or makes, no
// append to a function-local slice (appending into a caller-owned or
// pooled buffer is fine), no fmt/errors.New calls, and no interface
// conversions of non-pointer values (boxing allocates; pointers don't).
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc: "flag allocating constructs in functions annotated " +
		"//natix:noalloc (the PR 7 warm-path discipline)",
	Run: runNoalloc,
}

func runNoalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoallocMarker(fd.Doc) {
				continue
			}
			checkNoalloc(pass, fd)
		}
	}
	return nil
}

func hasNoallocMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == noallocMarker || strings.HasPrefix(text, noallocMarker+" ") {
			return true
		}
	}
	return false
}

func checkNoalloc(pass *Pass, fd *ast.FuncDecl) {
	c := &naChecker{pass: pass, owned: make(map[types.Object]bool)}
	// Parameters and the receiver are caller-owned: appending into
	// them (ReadChildren's buf) reuses caller capacity by contract.
	if fd.Recv != nil {
		c.addOwned(fd.Recv.List)
	}
	c.addOwned(fd.Type.Params.List)
	if fd.Type.Results != nil {
		c.addOwned(fd.Type.Results.List)
	}
	c.sig, _ = pass.Info.Defs[fd.Name].Type().(*types.Signature)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in //natix:noalloc function: a captured-variable closure allocates")
			return false // the closure flag covers its body
		case *ast.CompositeLit:
			c.compositeLit(n)
		case *ast.CallExpr:
			c.call(n)
		case *ast.ReturnStmt:
			c.returnStmt(n)
		case *ast.AssignStmt:
			c.assign(n)
		}
		return true
	})
}

type naChecker struct {
	pass  *Pass
	owned map[types.Object]bool
	sig   *types.Signature
}

func (c *naChecker) addOwned(fields []*ast.Field) {
	for _, f := range fields {
		for _, name := range f.Names {
			if obj := c.pass.Info.Defs[name]; obj != nil {
				c.owned[obj] = true
			}
		}
	}
}

func (c *naChecker) compositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "slice literal in //natix:noalloc function allocates")
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "map literal in //natix:noalloc function allocates")
	}
}

func (c *naChecker) call(call *ast.CallExpr) {
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if obj := c.pass.Info.Uses[id]; obj != nil && obj.Pkg() == nil {
				c.pass.Reportf(call.Pos(), "make in //natix:noalloc function allocates")
			}
			return
		case "append":
			if obj := c.pass.Info.Uses[id]; obj != nil && obj.Pkg() == nil {
				c.checkAppend(call)
			}
			return
		}
	}
	// Banned packages: fmt anywhere, errors.New (errors.Is/As are
	// allocation-free and allowed).
	if fn := calleeFunc(c.pass.Info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			c.pass.Reportf(call.Pos(), "fmt.%s in //natix:noalloc function allocates (boxing and formatting)", fn.Name())
		case "errors":
			if fn.Name() == "New" {
				c.pass.Reportf(call.Pos(), "errors.New in //natix:noalloc function allocates")
			}
		}
	}
	// Interface conversions at the call boundary.
	tv, ok := c.pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // type conversion, not a call
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.checkIfaceConv(pt, arg)
	}
}

// checkAppend flags appends whose base slice is a function-local
// variable: growth lands on the heap with no pooled or caller-owned
// backing. Appending into parameters, the receiver, struct fields, or
// dereferenced pointers is the sanctioned pattern.
func (c *naChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := objectOf(c.pass.Info, id)
	if obj == nil || c.owned[obj] {
		return
	}
	if _, isVar := obj.(*types.Var); isVar {
		c.pass.Reportf(call.Pos(), "append to function-local slice %q in //natix:noalloc function may allocate; append into a caller-owned or pooled buffer", id.Name)
	}
}

func (c *naChecker) returnStmt(ret *ast.ReturnStmt) {
	if c.sig == nil || len(ret.Results) != c.sig.Results().Len() {
		return
	}
	for i, r := range ret.Results {
		c.checkIfaceConv(c.sig.Results().At(i).Type(), r)
	}
}

func (c *naChecker) assign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		tv, ok := c.pass.Info.Types[lhs]
		if !ok || tv.Type == nil {
			continue
		}
		c.checkIfaceConv(tv.Type, s.Rhs[i])
	}
}

// checkIfaceConv flags storing a non-pointer concrete value into an
// interface: the value is boxed on the heap. Pointer-shaped values
// (pointers, maps, channels, funcs) box without allocating.
func (c *naChecker) checkIfaceConv(dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(types.Unalias(dst)) {
		return
	}
	tv, ok := c.pass.Info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	st := types.Unalias(tv.Type)
	if types.IsInterface(st) {
		return
	}
	switch u := st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Info()&types.IsUntyped != 0 {
			return
		}
	}
	c.pass.Reportf(src.Pos(), "interface conversion of non-pointer %s in //natix:noalloc function allocates", tv.Type.String())
}
