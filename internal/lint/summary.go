package lint

import (
	"go/ast"
	"go/types"
)

// A Summary is one function's bottom-up dataflow facts. Summaries are
// computed callee-first over the SCC condensation (callgraph.go), so
// consulting a callee's Summary at a call site is sound without re-walking
// its body.
type Summary struct {
	// AllocatesEver / AllocatesInLoop: the function performs a heap
	// allocation (make, new, composite literal, fmt call, closure) at all /
	// inside a loop — directly or through module callees. Consumed by
	// hotalloc: calling an allocates-in-loop function from a hot path is a
	// per-call allocation storm the intraprocedural check could not see.
	AllocatesEver   bool
	AllocatesInLoop bool
}

// computeSummary scans f's body for direct allocation sites and composes
// callee summaries. Callee summaries may still change within f's SCC;
// BuildModule iterates to a fixed point there. Cold paths are exempt the
// same way hotalloc's own walk exempts them — fmt calls in return position
// (error construction for a failing step) and everything under a panic
// argument — so a bounds-check panic deep in a bit-twiddling helper does not
// brand the helper allocating.
func computeSummary(mod *Module, f *Func) Summary {
	info := f.Pkg.Info
	cold := coldCalls(info, f.Decl.Body)
	var sum Summary
	depth := 0
	alloc := func() {
		sum.AllocatesEver = true
		if depth > 0 {
			sum.AllocatesInLoop = true
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
			ast.Inspect(body(n), walk)
			depth--
			return false
		case *ast.CompositeLit, *ast.FuncLit:
			alloc()
		case *ast.CallExpr:
			if cold[n] {
				return false // exemption covers the argument subtree
			}
			switch {
			case isBuiltin(info, n, "make") || isBuiltin(info, n, "new") || isPkgCall(info, n, "fmt"):
				alloc()
			default:
				if callee := mod.CalleeOf(info, n); callee != nil {
					if callee.Sum.AllocatesInLoop {
						sum.AllocatesEver, sum.AllocatesInLoop = true, true
					} else if callee.Sum.AllocatesEver {
						alloc()
					}
				}
			}
		}
		return true
	}
	ast.Inspect(f.Decl.Body, walk)
	return sum
}

// coldCalls collects the calls on sanctioned cold paths: fmt calls appearing
// as immediate return-statement arguments and panic calls. Shared between the
// summary engine and hotalloc's intraprocedural walk so both draw the same
// line.
func coldCalls(info *types.Info, block *ast.BlockStmt) map[*ast.CallExpr]bool {
	cold := map[*ast.CallExpr]bool{}
	ast.Inspect(block, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isPkgCall(info, call, "fmt") {
					cold[call] = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				cold[n] = true
			}
		}
		return true
	})
	return cold
}

func body(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// --- small shared helpers ---

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin || info.Uses[id] == nil
}

// isPkgCall reports a call to any function in the named package (selector
// form pkg.F).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == pkgName
}
