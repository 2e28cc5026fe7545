package analysis

import (
	"go/ast"
	"go/types"
)

// NonRetention enforces the //rdf:nonretaining contract from both
// sides. At call sites, a func literal passed to an annotated API
// (sparql.Run hands the same row slice to every emit; ExtractAppend
// reuses the caller's buffer) must not let its
// reference-typed parameters escape the callback: no assignment into
// enclosing or global state, no channel send, no goroutine capture. On
// the declaration side, an annotated function must honor its own
// promise: its reference-typed parameters must not be stored into
// fields, globals, or channels. Copies of elements (row[0] is a plain
// core.ID) and calls that receive the value (the callee is checked in
// its own right) are fine — only aliases of the reused storage are
// retention.
var NonRetention = &Analyzer{
	Name: "nonretention",
	Doc:  "callbacks of //rdf:nonretaining APIs must not retain their arguments",
	Run:  runNonRetention,
}

func runNonRetention(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if funcDocHas(fd, "//rdf:nonretaining") {
				checkNonRetainingDecl(p, fd)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isNonRetainingCallee(p, call) {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkCallback(p, lit)
						}
					}
				}
				return true
			})
		}
	}
}

// isNonRetainingCallee reports whether the call target carries
// //rdf:nonretaining, resolved through the facts of the declaring
// package (which includes the package under analysis).
func isNonRetainingCallee(p *Pass, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	pkgPath, key := objFuncKey(fn)
	return p.Facts.Has(pkgPath, key, NonRetaining)
}

// checkCallback flags escapes of lit's reference-typed parameters: the
// values behind them are reused by the caller after emit returns.
func checkCallback(p *Pass, lit *ast.FuncLit) {
	tracked := trackedParams(p, lit.Type)
	if len(tracked) == 0 {
		return
	}
	e := &escapeCheck{p: p, scope: lit, body: lit.Body, tracked: tracked,
		what: "callback argument"}
	e.walk(lit.Body)
}

// checkNonRetainingDecl verifies the annotated function keeps its own
// promise for its reference-typed parameters.
func checkNonRetainingDecl(p *Pass, fd *ast.FuncDecl) {
	tracked := trackedParams(p, fd.Type)
	if len(tracked) == 0 {
		return
	}
	e := &escapeCheck{p: p, scope: fd, body: fd.Body, tracked: tracked,
		what: "parameter of //rdf:nonretaining function", decl: true}
	e.walk(fd.Body)
}

// trackedParams collects the reference-typed parameters of a function
// type: aliases of these are what retention means.
func trackedParams(p *Pass, ft *ast.FuncType) map[*types.Var]bool {
	tracked := map[*types.Var]bool{}
	if ft.Params == nil {
		return tracked
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			v, ok := p.Info.Defs[name].(*types.Var)
			if ok && isRefType(v.Type()) {
				tracked[v] = true
			}
		}
	}
	return tracked
}

// escapeCheck walks one function body looking for tracked parameters
// (or reference-typed projections of them) flowing into storage that
// outlives the call.
type escapeCheck struct {
	p       *Pass
	scope   ast.Node // the FuncLit or FuncDecl whose params are tracked
	body    *ast.BlockStmt
	tracked map[*types.Var]bool
	what    string
	decl    bool // declaration-side check: returning the buffer is allowed
}

func (e *escapeCheck) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				if e.lhsOutlives(lhs) {
					e.flagEscapes(s.Rhs[i], "assigned outside the callback")
				}
			}
		case *ast.SendStmt:
			e.flagEscapes(s.Value, "sent on a channel")
		case *ast.GoStmt:
			e.flagAnyUse(s.Call, "captured by a goroutine")
		case *ast.ReturnStmt:
			if e.decl {
				return true // returning the buffer is the append contract
			}
			for _, r := range s.Results {
				e.flagEscapes(r, "returned from the callback")
			}
		}
		return true
	})
}

// lhsOutlives reports whether an assignment target survives the tracked
// scope. A plain local (including a parameter variable, which dies with
// the call) does not; a variable declared outside the scope or at
// package level does; and writing *through* a parameter, receiver, or
// outer variable (selector, index, deref) reaches caller-owned memory
// that outlives the call.
func (e *escapeCheck) lhsOutlives(lhs ast.Expr) bool {
	root := rootIdentVar(e.p, lhs)
	if root == nil {
		return false
	}
	switch ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return !e.inScope(root)
	default: // selector, index, star: writing through storage
		if e.tracked[root] {
			return false // b[k] = v mutates the tracked value itself; separate concern
		}
		return !e.inBody(root) || root.Parent() == e.p.Pkg.Scope()
	}
}

// inScope: declared anywhere in the tracked function, parameters
// included. inBody: declared in its body — parameters and the receiver
// are handles to caller-owned memory, so they do not count.
func (e *escapeCheck) inScope(v *types.Var) bool {
	return v.Pos() >= e.scope.Pos() && v.Pos() < e.scope.End()
}

func (e *escapeCheck) inBody(v *types.Var) bool {
	return v.Pos() >= e.body.Pos() && v.Pos() < e.body.End()
}

// flagEscapes reports reference-typed projections of tracked parameters
// inside expr. Call results break the alias chain (append and
// conversions are transparent: both alias their argument), element
// reads of basic type are copies, and anything else recurses.
func (e *escapeCheck) flagEscapes(expr ast.Expr, how string) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		x, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if root := rootIdentVar(e.p, x); root != nil && e.tracked[root] {
			if t := e.p.Info.TypeOf(x); t != nil && isRefType(t) {
				e.p.Reportf("nonretention", x.Pos(), "%s %s; the storage is reused after the call — copy what you need", e.what, how)
			}
			return false // the path is claimed; don't re-flag its base
		}
		if lit, ok := x.(*ast.FuncLit); ok {
			if e.usesTracked(lit) {
				e.p.Reportf("nonretention", lit.Pos(), "%s captured by an escaping closure; the storage is reused after the call", e.what)
			}
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if tv, isConv := e.p.Info.Types[call.Fun]; isConv && tv.IsType() {
				return true // conversion: aliases its operand, keep looking
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "append" {
				if _, isBI := e.p.Info.Uses[id].(*types.Builtin); isBI {
					return true // append aliases its arguments into the result
				}
			}
			return false // other call results are the callee's responsibility
		}
		return true
	}
	ast.Inspect(expr, visit)
}

// flagAnyUse reports any read of a tracked parameter under n — used for
// goroutine launches, where even an element copy races with the
// caller's reuse.
func (e *escapeCheck) flagAnyUse(n ast.Node, how string) {
	ast.Inspect(n, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if v, isVar := e.p.Info.Uses[id].(*types.Var); isVar && e.tracked[v] {
				e.p.Reportf("nonretention", id.Pos(), "%s %s; the storage is reused after the call", e.what, how)
				return false
			}
		}
		return true
	})
}

func (e *escapeCheck) usesTracked(lit *ast.FuncLit) bool {
	used := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, isVar := e.p.Info.Uses[id].(*types.Var); isVar && e.tracked[v] {
				used = true
			}
		}
		return !used
	})
	return used
}

// isRefType reports whether values of t alias underlying storage:
// slices, maps, pointers, channels, funcs, and interfaces. Strings and
// other value types are copies.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}
