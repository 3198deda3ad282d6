package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SlotIndex enforces the PR-3 compact-layout contract: state slices tagged
// //flash:slot-indexed hold one entry per *resident* vertex and may only be
// indexed by slot values, never by raw global vertex ids. Indexing such a
// slice with a gid compiles fine, stays in bounds for small test graphs, and
// silently reads another vertex's state in production — the nastiest class
// of bug the slot refactor introduced.
//
// The tag goes on the struct field or variable declaration (doc or trailing
// comment). The analyzer then taints every graph.VID-typed value — including
// integer conversions of one (int(gid), uint32(gid)), arithmetic over one,
// and locals assigned from one — and flags any index expression over a
// tagged slice whose index is VID-derived. Values laundered through a
// SlotTable call (st.Slot(v), st.Lookup(v), place.LocalIndex(v)) come back
// as plain ints from an opaque call, which is exactly the sanctioned way to
// turn a gid into an index.
var SlotIndex = &Analyzer{
	Name: "slotindex",
	Doc:  "//flash:slot-indexed slices may only be indexed by slot-table-derived values, not raw gids",
	Run:  runSlotIndex,
}

func runSlotIndex(pass *Pass) error {
	tagged := taggedSlotObjects(pass)
	if len(tagged) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			vidTainted := vidTaintedIdents(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				idx, ok := n.(*ast.IndexExpr)
				if !ok {
					return true
				}
				obj := baseObject(pass, idx.X)
				if obj == nil || !tagged[obj.Pos()] {
					return true
				}
				if isVIDDerived(pass, idx.Index, vidTainted) {
					pass.Reportf(idx.Index.Pos(),
						"%s is //flash:slot-indexed but the index is derived from a raw vertex id; translate through the slot table (st.Slot / st.Lookup / place.LocalIndex) first",
						types.ExprString(idx.X))
				}
				return true
			})
		}
	}
	return nil
}

// taggedSlotObjects finds the declarations that carry //flash:slot-indexed:
// struct fields (doc or line comment) and var specs. The set is keyed by
// declaration position rather than object identity because selecting a field
// of a generic type (worker[V].cur) yields an instantiated field object
// distinct from — but co-located with — the one in Defs.
func taggedSlotObjects(pass *Pass) map[token.Pos]bool {
	tagged := map[token.Pos]bool{}
	mark := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := pass.Info.Defs[name]; obj != nil {
				tagged[obj.Pos()] = true
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if commentGroupHasMarker(n.Doc, "slot-indexed") || commentGroupHasMarker(n.Comment, "slot-indexed") {
					mark(n.Names)
				}
			case *ast.ValueSpec:
				if commentGroupHasMarker(n.Doc, "slot-indexed") || commentGroupHasMarker(n.Comment, "slot-indexed") {
					mark(n.Names)
				}
			}
			return true
		})
	}
	return tagged
}

// baseObject resolves the object an index-expression base refers to: the
// field for w.cur, the variable for cur.
func baseObject(pass *Pass, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return pass.Info.Uses[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return baseObject(pass, e.X) // shard[t].val-style nesting
	}
	return nil
}

// vidTaintedIdents computes, to a fixed point, the local identifiers in fn
// that hold VID-derived values (assigned from a VID, a conversion of one, or
// arithmetic over one).
func vidTaintedIdents(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil || tainted[obj] {
					continue
				}
				if isVIDDerived(pass, as.Rhs[i], tainted) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// isVIDDerived reports whether expr carries a raw vertex id: its type is a
// named VID type, it converts one, it is arithmetic over one, or it is a
// tainted local. A call launders the chain only when the callee's summary
// says its return is not value-derived from a tainted argument — so a helper
// in another package that does `return int(gid) + off` propagates the taint
// (the intraprocedural version silently trusted every call), while the
// sanctioned slot-table lookups (SlotTable.Slot / Lookup and Placement's
// LocalIndex) stay launder points by construction (see isLaunder in
// summary.go).
func isVIDDerived(pass *Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	e := ast.Unparen(expr)
	if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil && isVIDType(tv.Type) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return tainted[pass.Info.Uses[e]]
	case *ast.CallExpr:
		// Conversion int(v) / uint32(v) propagates.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isVIDDerived(pass, e.Args[0], tainted)
		}
		// A module callee propagates per its DerivesRet summary.
		if callee := pass.Mod.CalleeOf(pass.Info, e); callee != nil {
			for j, a := range e.Args {
				if flag(callee.Sum.DerivesRet, paramIndex(callee, j, len(e.Args))) &&
					isVIDDerived(pass, a, tainted) {
					return true
				}
			}
		}
		return false
	case *ast.BinaryExpr:
		return isVIDDerived(pass, e.X, tainted) || isVIDDerived(pass, e.Y, tainted)
	case *ast.UnaryExpr:
		return isVIDDerived(pass, e.X, tainted)
	}
	return false
}

func isVIDType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "VID"
}
