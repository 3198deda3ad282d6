package lint

import (
	"go/ast"
	"go/types"
)

// BlockRes is the static twin of the block cache's residency contract: a
// *DecodedBlock handed out by BlockCache.Get lives in a recycled arena and is
// valid only while it is pinned — until its Release, which the engine's
// cursor issues when it moves on and at the end of the superstep — so no
// alias of its memory may outlive the scope that fetched it. FlashGraph
// enforces the same page-cache ownership discipline at runtime (as does the
// flashdebug arena poison here); statically, a retained block is a
// diagnostic, not a heisenbug over recycled memory.
//
// Tainted values are (a) anything of type DecodedBlock (so the taint crosses
// function boundaries by construction — returning the block itself is fine,
// callers re-taint it), and (b) slices pulled out of one (DecodedBlock.Adj
// aliases the decoded adjacency arena), tracked through local aliases and
// module callees whose summaries flow a parameter to a return.
//
// Violations are the sinks that outlive the scope: stores to fields, globals,
// maps, or slices; channel sends; go/defer captures; returning an adjacency
// alias; and passing tainted memory to a module function whose summary says
// it retains its argument. The sanctioned owners — the cache's bookkeeping
// and free list, the decoder that fills an arena, and the cursor that keeps a
// block pinned between calls — are marked //flash:blockowner.
var BlockRes = &Analyzer{
	Name: "blockres",
	Doc:  "decoded block memory may not outlive its superstep scope (eviction recycles it)",
	Run:  runBlockRes,
}

func runBlockRes(p *Pass) error {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f := p.Mod.FuncOf(p.Info.Defs[fd.Name])
			if f == nil {
				continue
			}
			if f.HasFuncMarker("blockowner") {
				continue // cache internals: the sanctioned owner of block memory
			}
			checkBlockRes(p, f)
		}
	}
	return nil
}

func checkBlockRes(p *Pass, f *Func) {
	// Local fixpoint: identifiers aliasing decoded adjacency memory.
	tainted := map[types.Object]bool{}
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil {
				obj = p.Info.Defs[e]
			}
			return tainted[obj]
		case *ast.SliceExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			// A slice-returning method on a block aliases the arena (Adj).
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && isBlockExpr(p.Info, sel.X) {
				if _, isSlice := typeOf(p.Info, e).(*types.Slice); isSlice {
					return true
				}
			}
			// A module callee may flow a tainted argument back out.
			if callee := p.Mod.CalleeOf(p.Info, e); callee != nil {
				for j, a := range e.Args {
					if flag(callee.Sum.FlowsToRet, paramIndex(callee, j, len(e.Args))) &&
						(taintedExpr(a) || isBlockExpr(p.Info, a)) {
						return true
					}
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(asg.Lhs) == len(asg.Rhs):
					rhs = asg.Rhs[i]
				case len(asg.Rhs) == 1:
					rhs = asg.Rhs[0]
				default:
					continue
				}
				if !taintedExpr(rhs) {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	escapes := func(e ast.Expr) bool { return taintedExpr(e) || isBlockExpr(p.Info, e) }

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Lhs) == len(n.Rhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				if !escapes(rhs) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj := p.Info.Uses[l]; obj != nil && p.Info.Defs[l] == nil && !declaredIn(obj, f.Decl) {
						p.Reportf(n.Pos(), "decoded block memory stored in package state outlives its superstep scope; copy it out (eviction recycles the arena)")
					}
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					p.Reportf(n.Pos(), "decoded block memory stored through %s outlives its superstep scope; copy it out or mark the owner //flash:blockowner", types.ExprString(lhs))
				}
			}
		case *ast.SendStmt:
			if escapes(n.Value) {
				p.Reportf(n.Pos(), "decoded block memory sent on a channel outlives its superstep scope; copy it out")
			}
		case *ast.GoStmt:
			reportBlockCapture(p, f, n.Call, tainted, "go")
		case *ast.DeferStmt:
			reportBlockCapture(p, f, n.Call, tainted, "defer")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				// Returning the *DecodedBlock itself is fine — the taint is
				// type-carried and re-attaches at every caller. Returning an
				// adjacency slice hides the provenance, so it escapes.
				if taintedExpr(res) && !isBlockExpr(p.Info, res) {
					p.Reportf(n.Pos(), "returning an alias of decoded block adjacency; the arena is recycled on eviction — copy it or return the *DecodedBlock")
				}
			}
		case *ast.CallExpr:
			callee := p.Mod.CalleeOf(p.Info, n)
			if callee == nil || callee.HasFuncMarker("blockowner") {
				return true
			}
			for j, a := range n.Args {
				if flag(callee.Sum.RetainsParam, paramIndex(callee, j, len(n.Args))) && escapes(a) {
					p.Reportf(n.Pos(), "decoded block memory passed to %s, which retains its argument past the call", callee.Name())
				}
			}
		}
		return true
	})
}

// reportBlockCapture flags go/defer calls whose arguments or closure captures
// alias decoded block memory.
func reportBlockCapture(p *Pass, f *Func, call *ast.CallExpr, tainted map[types.Object]bool, kind string) {
	offends := false
	for _, a := range call.Args {
		if isBlockExpr(p.Info, a) {
			offends = true
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && tainted[p.Info.Uses[id]] {
			offends = true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && !offends {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil && (tainted[obj] || isBlockObj(obj)) && declaredIn(obj, f.Decl) {
				offends = true
			}
			return true
		})
	}
	if offends {
		p.Reportf(call.Pos(), "decoded block memory captured by %s outlives its superstep scope; copy what the %s needs", kind, kind)
	}
}

// isBlockExpr reports whether e's static type is (a pointer to) a named type
// called DecodedBlock — matched by name, like commerr's receiver table, so
// fixtures can model the contract without importing flash/graph.
func isBlockExpr(info *types.Info, e ast.Expr) bool {
	t := typeOfExpr(info, e)
	if t == nil {
		return false
	}
	return isBlockTypeNamed(t)
}

func isBlockObj(obj types.Object) bool {
	return obj != nil && isBlockTypeNamed(obj.Type())
}

func isBlockTypeNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "DecodedBlock"
}
