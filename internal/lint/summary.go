package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Summary is one function's bottom-up dataflow facts, the unit the
// interprocedural analyzers compose: what flows from parameters to returns,
// what it keeps alive after returning, and what it allocates. Summaries are
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

	// RetainsParam[i]: an alias of parameter i survives the call — stored to
	// a global, a field, a map/slice element, sent on a channel, captured by
	// go/defer, or handed to a module callee that retains it. Consumed by
	// poolescape and blockres at call sites.
	RetainsParam []bool

	// FlowsToRet[i]: a return value may alias parameter i's memory
	// (re-slices and field loads included). Callers re-taint the call result.
	FlowsToRet []bool

	// DerivesRet[i]: a return value is derived from parameter i's value
	// (conversions and arithmetic included). Consumed by slotindex: a helper
	// that turns a VID into an int no longer launders the taint.
	// Slot-table lookups (SlotTable.Slot/Lookup, Placement.LocalIndex) are
	// the sanctioned boundary and report false here by construction.
	DerivesRet []bool

	// ReturnsFresh: every return hands back freshly constructed memory
	// (composite literals, new, or calls to other fresh-returning functions).
	// Consumed by sharedmut: a fresh value is private until published, so
	// mutating it is sanctioned.
	ReturnsFresh bool
}

func (s *Summary) equal(o *Summary) bool {
	if s.AllocatesEver != o.AllocatesEver || s.AllocatesInLoop != o.AllocatesInLoop ||
		s.ReturnsFresh != o.ReturnsFresh {
		return false
	}
	eq := func(a, b []bool) bool {
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
	return eq(s.RetainsParam, o.RetainsParam) && eq(s.FlowsToRet, o.FlowsToRet) &&
		eq(s.DerivesRet, o.DerivesRet)
}

// sumCtx is the per-function analysis state: a bitmask per local object over
// the parameter space (bit i = parameter i, recvBit = the receiver).
//
// Aliasing is tracked at two depths. alias is direct: the object's own memory
// may be parameter i's memory, so a write through it is a write the caller
// sees. inner is containment: the object holds references to parameter i's
// memory somewhere inside (a local struct with a field copied from a
// parameter, a local slice an element was stored into), so the parameter
// escapes wherever the object does — but writing another slot of the object
// touches only local memory. Collapsing the two is what a naive
// implementation does, and it brands every function that packages its
// argument into a returned struct as "retains its argument".
type sumCtx struct {
	mod   *Module
	f     *Func
	info  *types.Info
	alias map[types.Object]uint64 // may share memory with parameter i
	inner map[types.Object]uint64 // contains references to parameter i memory
	deriv map[types.Object]uint64 // value derived from parameter i
	fresh map[types.Object]bool   // holds locally constructed memory

	params  []types.Object
	recvBit uint64
	results []types.Object // named results, for bare returns
}

const maxTrackedParams = 62

// computeSummary runs the per-function dataflow over f's body. Callee
// summaries may still change within f's SCC; BuildModule iterates to a fixed
// point there.
func computeSummary(mod *Module, f *Func) Summary {
	sc := newSumCtx(mod, f)
	sc.propagate()
	sum := sc.sinks()
	sum.AllocatesEver, sum.AllocatesInLoop = sc.allocates()
	sum.ReturnsFresh = sc.returnsFresh()
	if isLaunder(f) {
		sum.DerivesRet = make([]bool, len(sc.params))
	}
	return sum
}

// freshLocals re-runs the local propagation for f and returns the objects
// holding locally constructed memory (used by sharedmut to sanction
// construction-time writes).
func freshLocals(mod *Module, f *Func) map[types.Object]bool {
	sc := newSumCtx(mod, f)
	sc.propagate()
	return sc.fresh
}

// newSumCtx seeds the per-function dataflow state: each parameter (and the
// receiver) aliases and derives itself.
func newSumCtx(mod *Module, f *Func) *sumCtx {
	sc := &sumCtx{
		mod:   mod,
		f:     f,
		info:  f.Pkg.Info,
		alias: map[types.Object]uint64{},
		inner: map[types.Object]uint64{},
		deriv: map[types.Object]uint64{},
		fresh: map[types.Object]bool{},
	}
	collect := func(fl *ast.FieldList, dst *[]types.Object) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				*dst = append(*dst, sc.info.Defs[name])
			}
			if len(field.Names) == 0 {
				*dst = append(*dst, nil) // unnamed: position still counts
			}
		}
	}
	collect(f.Decl.Type.Params, &sc.params)
	for i, p := range sc.params {
		if p != nil && i < maxTrackedParams {
			sc.alias[p] = 1 << i
			sc.deriv[p] = 1 << i
		}
	}
	if f.Decl.Recv != nil && len(f.Decl.Recv.List) > 0 && len(f.Decl.Recv.List[0].Names) > 0 {
		if obj := sc.info.Defs[f.Decl.Recv.List[0].Names[0]]; obj != nil {
			sc.recvBit = 1 << maxTrackedParams
			sc.alias[obj] = sc.recvBit
			sc.deriv[obj] = sc.recvBit
		}
	}
	if f.Decl.Type.Results != nil {
		for _, field := range f.Decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := sc.info.Defs[name]; obj != nil {
					sc.results = append(sc.results, obj)
				}
			}
		}
	}
	return sc
}

// isLaunder reports whether f is a sanctioned gid→index boundary for the
// slotindex taint: SlotTable.Slot / SlotTable.Lookup or any LocalIndex method
// (the Placement contract).
func isLaunder(f *Func) bool {
	if f.Decl.Recv == nil {
		return false
	}
	recv := types.ExprString(f.Decl.Recv.List[0].Type)
	name := f.Decl.Name.Name
	if name == "LocalIndex" {
		return true
	}
	isSlotTable := recv == "SlotTable" || recv == "*SlotTable"
	return isSlotTable && (name == "Slot" || name == "Lookup")
}

// propagate runs the local taint fixpoint: assignments, declarations, and
// range statements move parameter masks and freshness between locals.
func (sc *sumCtx) propagate() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(sc.f.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						changed = sc.flowTo(n.Lhs[i], n.Rhs[i]) || changed
					}
				} else if len(n.Rhs) == 1 {
					for i := range n.Lhs {
						changed = sc.flowTo(n.Lhs[i], n.Rhs[0]) || changed
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						v := n.Values[i]
						changed = sc.flowToIdent(name, sc.aliasOf(v), sc.innerOf(v), sc.derivOf(v), sc.isFresh(v)) || changed
					}
				}
			case *ast.RangeStmt:
				am, dm := sc.escOf(n.X), sc.derivOf(n.X)
				_, isMap := typeOf(sc.info, n.X).(*types.Map)
				if id, ok := n.Key.(*ast.Ident); ok && n.Key != nil {
					km := uint64(0)
					if isMap {
						km = dm // map keys are data; slice indexes are positions
					}
					changed = sc.flowToIdent(id, 0, 0, km, false) || changed
				}
				if id, ok := n.Value.(*ast.Ident); ok && n.Value != nil {
					// An element loaded out of a container may alias anything
					// the container holds, so the value gets the esc mask.
					changed = sc.flowToIdent(id, am, 0, dm, false) || changed
				}
			}
			return true
		})
	}
}

// flowTo merges rhs's masks into lhs. A plain identifier receives them
// directly; a store through a selector/index/star flows them into the chain's
// root object's inner mask, so that taint placed inside a local struct or
// slice resurfaces when that local is later returned or stored (whether the
// store also counts as retention is decided in sinks, by where the root's
// memory lives).
func (sc *sumCtx) flowTo(lhs, rhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		if root := chainRootIdent(lhs); root != nil {
			return sc.flowToIdent(root, 0, sc.escOf(rhs), sc.derivOf(rhs), false)
		}
		return false
	}
	if id.Name == "_" {
		return false
	}
	return sc.flowToIdent(id, sc.aliasOf(rhs), sc.innerOf(rhs), sc.derivOf(rhs), sc.isFresh(rhs))
}

// chainRootIdent walks x.f[i].g-style chains to the base identifier, or nil
// when the base is not an identifier (a call result, say).
func chainRootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func (sc *sumCtx) flowToIdent(id *ast.Ident, am, im, dm uint64, fresh bool) bool {
	obj := sc.objOf(id)
	if obj == nil {
		return false
	}
	changed := false
	if am&^sc.alias[obj] != 0 {
		sc.alias[obj] |= am
		changed = true
	}
	if im&^sc.inner[obj] != 0 {
		sc.inner[obj] |= im
		changed = true
	}
	if dm&^sc.deriv[obj] != 0 {
		sc.deriv[obj] |= dm
		changed = true
	}
	if fresh && !sc.fresh[obj] {
		sc.fresh[obj] = true
		changed = true
	}
	return changed
}

func (sc *sumCtx) objOf(id *ast.Ident) types.Object {
	if obj := sc.info.Defs[id]; obj != nil {
		return obj
	}
	return sc.info.Uses[id]
}

// aliasOf computes which parameters expr may share memory with. Loading a
// value whose type cannot carry references (ints, floats, strings, bools)
// breaks aliasing.
func (sc *sumCtx) aliasOf(expr ast.Expr) uint64 {
	e := ast.Unparen(expr)
	if t := typeOfExpr(sc.info, e); t != nil && !typeRetainsMemory(t) {
		if u, ok := e.(*ast.UnaryExpr); !ok || u.Op != token.AND {
			return 0
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := sc.objOf(e); obj != nil {
			return sc.alias[obj]
		}
	case *ast.SliceExpr:
		return sc.escOf(e.X)
	case *ast.SelectorExpr:
		// A value loaded out of a container may alias anything the container
		// holds, so container loads collapse the base's esc mask into direct
		// aliasing of the loaded value.
		return sc.escOf(e.X)
	case *ast.IndexExpr:
		return sc.escOf(e.X)
	case *ast.StarExpr:
		return sc.escOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return sc.aliasAddr(e.X)
		}
	case *ast.CompositeLit:
		return 0 // the literal's own memory is fresh; contents are innerOf
	case *ast.CallExpr:
		return sc.callAlias(e)
	}
	return 0
}

// innerOf computes which parameters' memory expr's value holds references to
// (without its own memory being that memory). Container loads need no case of
// their own: aliasOf already collapses the base's esc mask into them.
func (sc *sumCtx) innerOf(expr ast.Expr) uint64 {
	e := ast.Unparen(expr)
	if t := typeOfExpr(sc.info, e); t != nil && !typeRetainsMemory(t) {
		return 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := sc.objOf(e); obj != nil {
			return sc.inner[obj]
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// &x reaches everything x's value holds.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if obj := sc.objOf(id); obj != nil {
					return sc.alias[obj] | sc.inner[obj]
				}
			}
			if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return sc.innerOf(lit)
			}
		}
	case *ast.CompositeLit:
		var m uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			m |= sc.escOf(elt)
		}
		return m
	case *ast.CallExpr:
		if tv, ok := sc.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sc.innerOf(e.Args[0])
		}
	}
	return 0
}

// escOf is the full reachability mask of expr's value: its own memory plus
// everything it contains. Sinks (returns, global stores, sends, captures,
// retaining callees) use this; write-through checks use aliasOf/aliasAddr.
func (sc *sumCtx) escOf(expr ast.Expr) uint64 {
	return sc.aliasOf(expr) | sc.innerOf(expr)
}

// aliasAddr handles &x: the pointer aliases the addressed object's memory
// regardless of the field's own type.
func (sc *sumCtx) aliasAddr(expr ast.Expr) uint64 {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := sc.objOf(e); obj != nil {
			return sc.alias[obj]
		}
	case *ast.SelectorExpr:
		return sc.aliasAddr(e.X)
	case *ast.IndexExpr:
		return sc.aliasAddr(e.X)
	case *ast.StarExpr:
		return sc.aliasAddr(e.X)
	case *ast.CompositeLit, *ast.CallExpr:
		return sc.aliasOf(expr)
	}
	return 0
}

func (sc *sumCtx) callAlias(call *ast.CallExpr) uint64 {
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return sc.aliasOf(call.Args[0])
		}
		return 0
	}
	if isBuiltin(sc.info, call, "append") {
		var m uint64
		if len(call.Args) > 0 {
			m = sc.aliasOf(call.Args[0])
		}
		for i, a := range call.Args[1:] {
			if call.Ellipsis != token.NoPos && i == len(call.Args)-2 {
				continue // append(dst, src...) copies the elements out
			}
			m |= sc.escOf(a) // appended references live inside the result
		}
		return m
	}
	callee := sc.mod.CalleeOf(sc.info, call)
	if callee == nil {
		return 0
	}
	var m uint64
	for j, a := range call.Args {
		if flag(callee.Sum.FlowsToRet, paramIndex(callee, j, len(call.Args))) {
			m |= sc.escOf(a)
		}
	}
	return m
}

// derivOf computes which parameters expr's value is derived from —
// conversions, arithmetic, and field/element loads all propagate; calls
// launder unless the module callee's summary says otherwise.
func (sc *sumCtx) derivOf(expr ast.Expr) uint64 {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := sc.objOf(e); obj != nil {
			return sc.deriv[obj]
		}
	case *ast.SliceExpr:
		return sc.derivOf(e.X)
	case *ast.SelectorExpr:
		return sc.derivOf(e.X)
	case *ast.IndexExpr:
		return sc.derivOf(e.X) | sc.derivOf(e.Index)
	case *ast.StarExpr:
		return sc.derivOf(e.X)
	case *ast.UnaryExpr:
		return sc.derivOf(e.X)
	case *ast.BinaryExpr:
		return sc.derivOf(e.X) | sc.derivOf(e.Y)
	case *ast.CompositeLit:
		var m uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			m |= sc.derivOf(elt)
		}
		return m
	case *ast.CallExpr:
		if tv, ok := sc.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sc.derivOf(e.Args[0])
		}
		callee := sc.mod.CalleeOf(sc.info, e)
		if callee == nil {
			return 0
		}
		var m uint64
		for j, a := range e.Args {
			if flag(callee.Sum.DerivesRet, paramIndex(callee, j, len(e.Args))) {
				m |= sc.derivOf(a)
			}
		}
		return m
	}
	return 0
}

// isFresh reports whether expr hands back freshly constructed memory.
func (sc *sumCtx) isFresh(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			switch x := ast.Unparen(e.X).(type) {
			case *ast.CompositeLit:
				return true
			case *ast.Ident:
				// &localVar: the variable's own memory is private to this
				// call (the Fork shallow-copy pattern: q := *p; return &q).
				if obj := sc.objOf(x); obj != nil && declaredIn(obj, sc.f.Decl) {
					return true
				}
			}
		}
	case *ast.Ident:
		if obj := sc.objOf(e); obj != nil {
			return sc.fresh[obj]
		}
	case *ast.CallExpr:
		if tv, ok := sc.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sc.isFresh(e.Args[0])
		}
		if isBuiltin(sc.info, e, "new") || isBuiltin(sc.info, e, "make") {
			return true
		}
		if callee := sc.mod.CalleeOf(sc.info, e); callee != nil {
			return callee.Sum.ReturnsFresh
		}
	}
	return false
}

// sinks walks the body once after the fixpoint and records every way a
// parameter escapes or reaches a return.
func (sc *sumCtx) sinks() Summary {
	np := len(sc.params)
	sum := Summary{
		RetainsParam: make([]bool, np),
		FlowsToRet:   make([]bool, np),
		DerivesRet:   make([]bool, np),
	}
	setBits := func(dst []bool, mask uint64) {
		for i := 0; i < np && i < maxTrackedParams; i++ {
			if mask&(1<<i) != 0 {
				dst[i] = true
			}
		}
	}
	retain := func(mask uint64) { setBits(sum.RetainsParam, mask) }

	ast.Inspect(sc.f.Decl.Body, func(n ast.Node) bool {
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
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if l.Name == "_" {
						continue
					}
					if obj := sc.objOf(l); obj != nil && !declaredIn(obj, sc.f.Decl) {
						retain(sc.escOf(rhs)) // store to a package global
					}
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					// A store into memory rooted at a purely local object is
					// not retention — the taint flows into the root's inner
					// mask (propagate) and escapes only if the root itself
					// does. Everything else (globals, call results, memory
					// reachable from params or the receiver) is
					// caller-visible, so the stored value outlives the call.
					base := sc.aliasAddr(l)
					root := chainRootIdent(l)
					local := base == 0 && root != nil
					if local {
						obj := sc.objOf(root)
						local = obj != nil && declaredIn(obj, sc.f.Decl)
					}
					if !local {
						retain(sc.escOf(rhs))
					}
				}
			}
		case *ast.SendStmt:
			retain(sc.escOf(n.Value))
		case *ast.GoStmt:
			retain(sc.capturedMask(n.Call))
		case *ast.DeferStmt:
			retain(sc.capturedMask(n.Call))
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				for _, obj := range sc.results {
					setBits(sum.FlowsToRet, sc.alias[obj]|sc.inner[obj])
					setBits(sum.DerivesRet, sc.deriv[obj])
				}
			}
			for _, res := range n.Results {
				setBits(sum.FlowsToRet, sc.escOf(res))
				setBits(sum.DerivesRet, sc.derivOf(res))
			}
		case *ast.CallExpr:
			sc.callSinks(n, retain)
		}
		return true
	})
	return sum
}

// callSinks applies a module callee's summary to the masks at one call site.
func (sc *sumCtx) callSinks(call *ast.CallExpr, retain func(uint64)) {
	callee := sc.mod.CalleeOf(sc.info, call)
	if callee == nil {
		return
	}
	for j, a := range call.Args {
		if flag(callee.Sum.RetainsParam, paramIndex(callee, j, len(call.Args))) {
			retain(sc.escOf(a))
		}
	}
}

// capturedMask collects the parameter masks a go/defer call keeps alive:
// its arguments plus everything a function-literal callee captures.
func (sc *sumCtx) capturedMask(call *ast.CallExpr) uint64 {
	var m uint64
	for _, a := range call.Args {
		m |= sc.escOf(a)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := sc.info.Uses[id]; obj != nil {
					m |= sc.alias[obj] | sc.inner[obj]
				}
			}
			return true
		})
	}
	return m
}

// returnsFresh reports whether every return statement hands back freshly
// constructed memory in each reference-carrying result position.
func (sc *sumCtx) returnsFresh() bool {
	if sc.f.Decl.Type.Results == nil {
		return false
	}
	fresh, sawFresh := true, false
	ast.Inspect(sc.f.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are its own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			t := typeOfExpr(sc.info, res)
			if t == nil || !typeRetainsMemory(t) || isErrorType(t) || isUntypedNil(t) {
				continue
			}
			if sc.isFresh(res) {
				sawFresh = true
			} else {
				fresh = false
			}
		}
		return true
	})
	return fresh && sawFresh
}

// allocates scans for direct allocation sites and composes callee summaries:
// (ever, inLoop). Cold paths are exempt the same way hotalloc's own walk
// exempts them — fmt calls in return position (error construction for a
// failing step) and everything under a panic argument — so a bounds-check
// panic deep in a bit-twiddling helper does not brand the helper allocating.
func (sc *sumCtx) allocates() (bool, bool) {
	cold := coldCalls(sc.info, sc.f.Decl.Body)
	ever, inLoop := false, false
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
			ast.Inspect(body(n), walk)
			depth--
			return false
		case *ast.CompositeLit:
			ever = true
			if depth > 0 {
				inLoop = true
			}
		case *ast.FuncLit:
			ever = true
			if depth > 0 {
				inLoop = true
			}
		case *ast.CallExpr:
			if cold[n] {
				return false // exemption covers the argument subtree
			}
			switch {
			case isBuiltin(sc.info, n, "make") || isBuiltin(sc.info, n, "new"):
				ever = true
				if depth > 0 {
					inLoop = true
				}
			case isPkgCall(sc.info, n, "fmt"):
				ever = true
				if depth > 0 {
					inLoop = true
				}
			default:
				if callee := sc.mod.CalleeOf(sc.info, n); callee != nil {
					if callee.Sum.AllocatesInLoop {
						ever, inLoop = true, true
					} else if callee.Sum.AllocatesEver {
						ever = true
						if depth > 0 {
							inLoop = true
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(sc.f.Decl.Body, walk)
	return ever, inLoop
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

func flag(bits []bool, i int) bool { return i >= 0 && i < len(bits) && bits[i] }

// paramIndex maps argument position j at a call with nargs arguments onto the
// callee's parameter index, folding variadic tails onto the last parameter.
func paramIndex(callee *Func, j, nargs int) int {
	np := 0
	if callee.Decl.Type.Params != nil {
		for _, f := range callee.Decl.Type.Params.List {
			if len(f.Names) == 0 {
				np++
			}
			np += len(f.Names)
		}
	}
	if np == 0 {
		return -1
	}
	if j >= np {
		return np - 1 // variadic tail
	}
	return j
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// typeRetainsMemory reports whether values of t can carry references to
// other memory (so copying one preserves aliasing). Strings are immutable
// and excluded on purpose.
func typeRetainsMemory(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(t types.Type) bool
	rec = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
			*types.Signature, *types.Interface:
			return true
		case *types.Basic:
			return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if rec(u.Field(i).Type()) {
					return true
				}
			}
			return false
		case *types.Array:
			return rec(u.Elem())
		case *types.TypeParam:
			return true // unknown instantiation: assume reference-carrying
		}
		return false
	}
	return rec(t)
}

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

func declaredIn(obj types.Object, decl *ast.FuncDecl) bool {
	pos := obj.Pos()
	return pos != token.NoPos && pos >= decl.Pos() && pos < decl.End()
}
