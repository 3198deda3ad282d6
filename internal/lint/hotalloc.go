package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the PR-2 zero-allocation contract: a function whose doc
// comment carries //flash:hotpath must not contain allocating constructs.
//
// Flagged inside a hot function (and the function literals it contains):
//
//   - any call into package fmt, unless the call is an immediate argument of
//     a return statement (constructing the error for a failed superstep is a
//     cold path by definition);
//   - unsized make: make(map/chan) without a capacity hint, and
//     make([]T, 0) with no capacity argument;
//   - append whose destination cannot be shown to be pre-sized — the
//     destination must be a parameter (the caller owns the capacity), a
//     variable assigned from a call or a capacity-carrying make, or the
//     x[:0] reuse idiom;
//   - implicit interface boxing: a non-constant, non-pointer-shaped concrete
//     value passed where an interface is expected (each such conversion is a
//     heap allocation);
//   - a variable-capturing function literal inside a loop body (one closure
//     environment allocation per iteration; hoist it above the loop, as the
//     EdgeMap kernels do);
//   - (flashvet v2) a call to a module function whose dataflow summary says
//     it allocates in a loop, or — when the call itself sits inside a loop —
//     allocates at all. The intraprocedural version only saw allocation
//     syntax in the hot function's own body, so `for { helper() }` hid an
//     allocation storm one call away. Callees that are themselves marked
//     //flash:hotpath are exempt: they are checked independently and
//     zero-alloc by contract.
//
// panic arguments are exempt (cold), as are untyped constants (boxed into
// read-only static interface data by the compiler).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //flash:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HasMarker(fn, "hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	sized := sizedDestinations(pass, fn)
	exempt := coldCalls(pass.Info, fn.Body) // exemption covers the whole argument subtree

	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if !exempt[n] && !insideExempt(stack, exempt) {
				checkHotCall(pass, n, sized)
				checkHotCallee(pass, n, insideLoop(stack[:len(stack)-1]))
			}
		case *ast.FuncLit:
			if insideLoop(stack[:len(stack)-1]) && capturesVariables(pass, fn, n) {
				pass.Reportf(n.Pos(), "variable-capturing closure inside a loop allocates per iteration; hoist it above the loop")
			}
		}
		return true
	})
}

// insideExempt reports whether the innermost enclosing call on the ancestor
// stack is exempt (so boxing inside fmt-in-return or panic args is not
// double-reported).
func insideExempt(stack []ast.Node, exempt map[*ast.CallExpr]bool) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && exempt[call] {
			return true
		}
	}
	return false
}

func insideLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

func checkHotCall(pass *Pass, call *ast.CallExpr, sized map[string]bool) {
	if isPkgCall(pass.Info, call, "fmt") {
		pass.Reportf(call.Pos(), "call into package fmt allocates in hot path (only allowed as a direct return argument)")
		return
	}
	switch calleeName(call) {
	case "make":
		checkHotMake(pass, call)
		return
	case "append":
		checkHotAppend(pass, call, sized)
		return
	}
	checkBoxing(pass, call)
}

// checkHotCallee consults the module dataflow summary of a called function:
// hot code must not call into allocation, even when the allocation lives in
// another package. Two sanctions apply: a //flash:hotpath callee is already
// checked on its own terms, and a //flash:amortized callee declares its
// allocation is paid once per superstep (or once per block miss), not per
// element — the marker is the reviewed waiver for orchestration helpers like
// parfor and the out-of-core decode path.
func checkHotCallee(pass *Pass, call *ast.CallExpr, inLoop bool) {
	callee := pass.Mod.CalleeOf(pass.Info, call)
	if callee == nil || HasMarker(callee.Decl, "hotpath") || HasMarker(callee.Decl, "amortized") {
		return
	}
	switch {
	case callee.Sum.AllocatesInLoop:
		pass.Reportf(call.Pos(), "call to %s allocates in a loop (per its dataflow summary); pool or pre-size in the callee, or hoist the work off the hot path", callee.Name())
	case inLoop && callee.Sum.AllocatesEver:
		pass.Reportf(call.Pos(), "call to allocating %s inside a hot loop allocates per iteration; hoist it above the loop", callee.Name())
	}
}

func calleeName(call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func checkHotMake(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || !tv.IsType() {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map, *types.Chan:
		if len(call.Args) < 2 {
			pass.Reportf(call.Pos(), "unsized make in hot path: pass a capacity hint")
		}
	case *types.Slice:
		if len(call.Args) == 2 && isZeroLiteral(call.Args[1]) {
			pass.Reportf(call.Pos(), "unsized make in hot path: make([]T, 0) grows on append; pass an explicit capacity")
		}
	}
}

func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

func checkHotAppend(pass *Pass, call *ast.CallExpr, sized map[string]bool) {
	if len(call.Args) == 0 {
		return
	}
	if !isSizedExpr(call.Args[0], sized) {
		pass.Reportf(call.Pos(), "append to possibly-unsized %s in hot path: pre-size with make(len, cap), draw from the frame pool, or reuse with x[:0]",
			types.ExprString(call.Args[0]))
	}
}

// sizedDestinations computes, to a fixed point, the set of destination keys
// (idents and field selectors by source text) that are known capacity-carrying
// slices inside fn: parameters, results of calls (pool draws, encoders),
// make with an explicit capacity, and chains thereof.
func sizedDestinations(pass *Pass, fn *ast.FuncDecl) map[string]bool {
	sized := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				sized[name.Name] = true
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})

	// Gather simple assignments lhs = rhs (including :=).
	type assign struct {
		lhs string
		rhs ast.Expr
	}
	var assigns []assign
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					assigns = append(assigns, assign{types.ExprString(n.Lhs[i]), n.Rhs[i]})
				}
			} else if len(n.Rhs) == 1 {
				for i := range n.Lhs {
					assigns = append(assigns, assign{types.ExprString(n.Lhs[i]), n.Rhs[0]})
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					assigns = append(assigns, assign{name.Name, n.Values[i]})
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if !sized[a.lhs] && sizedRHS(a.rhs, sized) {
				sized[a.lhs] = true
				changed = true
			}
		}
	}
	return sized
}

// sizedRHS reports whether assigning expr confers known capacity.
func sizedRHS(expr ast.Expr, sized map[string]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		switch calleeName(e) {
		case "make":
			// Sized only with an explicit capacity argument or a non-zero
			// length; make([]T, 0) is the growth-prone pattern.
			return len(e.Args) >= 3 || (len(e.Args) == 2 && !isZeroLiteral(e.Args[1]))
		case "append":
			return len(e.Args) > 0 && isSizedExpr(e.Args[0], sized)
		}
		return true // any other call: the callee owns the capacity contract
	case *ast.SliceExpr, *ast.Ident, *ast.SelectorExpr:
		return isSizedExpr(expr, sized)
	}
	return false
}

// isSizedExpr reports whether an append destination expression carries
// capacity: the x[:0] reuse idiom, a slice of a sized base, or a tracked
// sized ident/selector.
func isSizedExpr(expr ast.Expr, sized map[string]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SliceExpr:
		if e.Low == nil && e.High != nil && isZeroLiteral(e.High) {
			return true // x[:0] reuse
		}
		return isSizedExpr(e.X, sized)
	case *ast.Ident, *ast.SelectorExpr:
		return sized[types.ExprString(e)]
	case *ast.CallExpr:
		return true // appending to a call result: capacity owned by callee
	}
	return false
}

// checkBoxing flags implicit concrete→interface conversions in call
// arguments: each one heap-allocates unless the value is pointer-shaped or a
// compile-time constant.
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x): boxing when T is an interface.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			reportBoxedArg(pass, call.Args[0])
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if _, ellipsis := arg.(*ast.Ellipsis); ellipsis {
				continue
			}
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			reportBoxedArg(pass, arg)
		}
	}
}

func reportBoxedArg(pass *Pass, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants box into static interface data
	}
	at := tv.Type
	if types.IsInterface(at) || isUntypedNil(at) || pointerShaped(at) {
		return
	}
	pass.Reportf(arg.Pos(), "implicit interface boxing of %s allocates in hot path", at.String())
}

func isUntypedNil(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t fit an interface data word
// without allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// capturesVariables reports whether lit references a local variable declared
// outside the literal but inside outer (a closure environment allocation).
func capturesVariables(pass *Pass, outer *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos == token.NoPos {
			return true
		}
		declaredInLit := pos >= lit.Pos() && pos < lit.End()
		declaredInOuter := pos >= outer.Pos() && pos < outer.End()
		if !declaredInLit && declaredInOuter {
			captures = true
		}
		return true
	})
	return captures
}
