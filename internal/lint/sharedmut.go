package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedMut enforces the PR 7 immutable-after-publish contract behind
// core.SharedGraph: a type marked //flash:immutable (partition.Partitioned,
// partition.Part, partition.SlotTable, graph.Graph) is shared read-only
// between concurrent jobs once published, so nothing may write through it.
//
// Sanctioned escapes, in the order a sharing bug is actually fixed:
//
//   - construction: writes whose root holds locally constructed memory
//     (composite literal, new, or a fresh-returning call such as
//     partition.New) are private until published;
//   - //flash:mutator functions own their writes (one that repopulates a
//     single worker's Part in place, say); call *sites* of a mutator are
//     then checked against the same sanction rules — this is where the
//     interprocedural summaries bite, because the mutation is visible
//     across packages;
//   - a //flash:privatizes call (one that swaps a copy-on-write fork in for
//     the shared object) earlier in the body sanctions later mutator calls
//     rooted at the same object.
//
// The runtime itself uses neither marker — it builds a Partitioned once and
// never writes it again — so the last two rules are exercised by the fixtures
// only and guard against an in-place mutator being introduced.
//
// This is GraphLab's consistency-model enforcement done statically: the
// engine never takes a lock on topology because the analyzer proves nobody
// writes it.
var SharedMut = &Analyzer{
	Name: "sharedmut",
	Doc:  "no writes through //flash:immutable types after publish; Fork (COW) is the sanctioned escape",
	Run:  runSharedMut,
}

func runSharedMut(p *Pass) error {
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
			if f.HasFuncMarker("mutator") || f.HasFuncMarker("privatizes") {
				continue // sanctioned implementation; its call sites are checked
			}
			checkSharedMut(p, f)
		}
	}
	return nil
}

func checkSharedMut(p *Pass, f *Func) {
	fresh := freshLocals(p.Mod, f)

	// privatized[obj] = position of the earliest //flash:privatizes call
	// rooted at obj (e.fork() sanctions a later e.part.Rebuild(w)).
	privatized := map[types.Object]token.Pos{}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.Mod.CalleeOf(p.Info, call)
		if callee == nil || !callee.HasFuncMarker("privatizes") {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := chainRootObj(p.Info, sel.X); obj != nil {
				if old, seen := privatized[obj]; !seen || call.Pos() < old {
					privatized[obj] = call.Pos()
				}
			}
		}
		return true
	})

	sanctioned := func(root ast.Expr, at token.Pos) bool {
		obj := chainRootObj(p.Info, root)
		if obj == nil {
			return false
		}
		if fresh[obj] {
			return true
		}
		pos, ok := privatized[obj]
		return ok && pos < at
	}

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if t, ok := writtenImmutable(p, lhs); ok && !sanctioned(lhs, n.Pos()) {
					p.Reportf(n.Pos(), "write through //flash:immutable %s after publish; Fork a private copy (partition.Fork / //flash:privatizes) or mark the owner //flash:mutator",
						immutableTypeName(t))
				}
			}
		case *ast.IncDecStmt:
			if t, ok := writtenImmutable(p, n.X); ok && !sanctioned(n.X, n.Pos()) {
				p.Reportf(n.Pos(), "write through //flash:immutable %s after publish; Fork a private copy (partition.Fork / //flash:privatizes) or mark the owner //flash:mutator",
					immutableTypeName(t))
			}
		case *ast.CallExpr:
			callee := p.Mod.CalleeOf(p.Info, n)
			if callee == nil || !callee.HasFuncMarker("mutator") {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if t := typeOfExpr(p.Info, sel.X); p.Mod.IsImmutableType(t) && !sanctioned(sel.X, n.Pos()) {
					p.Reportf(n.Pos(), "call to //flash:mutator %s mutates shared //flash:immutable %s; fork first (partition.Fork / //flash:privatizes)",
						callee.Name(), immutableTypeName(t))
				}
			}
			for _, a := range n.Args {
				if t := typeOfExpr(p.Info, a); p.Mod.IsImmutableType(t) && !sanctioned(a, n.Pos()) {
					p.Reportf(n.Pos(), "passing shared //flash:immutable %s to //flash:mutator %s; fork first (partition.Fork / //flash:privatizes)",
						immutableTypeName(t), callee.Name())
				}
			}
		}
		return true
	})
}

// writtenImmutable reports whether lhs writes through a value of an
// //flash:immutable type, returning the first such type on the access chain
// (p.Parts[w].Slots = s is a write through *Partitioned and through Part).
func writtenImmutable(p *Pass, lhs ast.Expr) (types.Type, bool) {
	for {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if t := typeOfExpr(p.Info, l.X); p.Mod.IsImmutableType(t) {
				return t, true
			}
			lhs = l.X
		case *ast.IndexExpr:
			if t := typeOfExpr(p.Info, l.X); p.Mod.IsImmutableType(t) {
				return t, true
			}
			lhs = l.X
		case *ast.StarExpr:
			if t := typeOfExpr(p.Info, l.X); p.Mod.IsImmutableType(t) {
				return t, true
			}
			lhs = l.X
		default:
			return nil, false
		}
	}
}

// chainRootObj strips selectors, indexes, derefs, and slices off expr and
// resolves the root identifier's object.
func chainRootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if obj := info.Defs[e]; obj != nil {
				return obj
			}
			return info.Uses[e]
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

func immutableTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
