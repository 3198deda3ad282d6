package lint

import (
	"go/ast"
	"go/types"
)

// SharedMut enforces the PR 7 immutable-after-publish contract behind
// core.SharedGraph: a type marked //flash:immutable (partition.Partitioned,
// partition.Part, partition.SlotTable, graph.Graph) is shared read-only
// between concurrent jobs once published, so nothing may write through it.
//
// One rule, one escape: a write through an immutable type is reported unless
// the chain's root holds locally constructed memory (a composite literal,
// new, or a call whose summary says it ReturnsFresh, such as partition.New),
// which is private until published. No function marker exempts its body: a
// change to shared topology is made on a freshly built copy.
//
// This is GraphLab's consistency-model enforcement done statically: the
// engine never takes a lock on topology because the analyzer proves nobody
// writes it.
var SharedMut = &Analyzer{
	Name: "sharedmut",
	Doc:  "no writes through //flash:immutable types after publish; only freshly built memory may be written",
	Run:  runSharedMut,
}

func runSharedMut(p *Pass) error {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f := p.Mod.FuncOf(p.Info.Defs[fd.Name]); f != nil {
				checkSharedMut(p, f)
			}
		}
	}
	return nil
}

func checkSharedMut(p *Pass, f *Func) {
	fresh := freshLocals(p.Mod, f)
	report := func(stmt ast.Node, lhs ast.Expr) {
		if t, ok := writtenImmutable(p, lhs); ok && !fresh[chainRootObj(p.Info, lhs)] {
			p.Reportf(stmt.Pos(), "write through //flash:immutable %s after publish; build a fresh value instead",
				immutableTypeName(t))
		}
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(n, lhs)
			}
		case *ast.IncDecStmt:
			report(n, n.X)
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
