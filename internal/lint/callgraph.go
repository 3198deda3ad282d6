package lint

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural layer under flashvet: a module-wide static
// call graph over every loaded package, condensed into strongly connected
// components and traversed bottom-up to compute one dataflow Summary per
// function (see summary.go). Analyzers consult it through Pass.Mod.
//
// Identity across packages is the crux: when package A is type-checked from
// source, a reference to B.F resolves to a types.Object materialized from B's
// compiler export data — a different pointer than the object B's own
// source-checked pass defines. FuncKey canonicalizes both to the same string
// ("pkgpath.Recv.Name"), which is what Module.Funcs is keyed by.

// A Func is one declared function or method in the analyzed module.
type Func struct {
	Obj  types.Object
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls holds every module function this one references — direct calls,
	// method calls, and function values handed to higher-order code — a
	// superset of the calls CalleeOf resolves, which is all the bottom-up
	// summary order needs.
	Calls []*Func

	// Sum is the bottom-up dataflow summary (see summary.go).
	Sum Summary

	// tarjan scratch
	index, lowlink int
	onStack        bool
}

// Name returns a compact human-readable name ("(*Partitioned).Rebuild").
func (f *Func) Name() string {
	if f.Decl.Recv != nil && len(f.Decl.Recv.List) > 0 {
		return "(" + types.ExprString(f.Decl.Recv.List[0].Type) + ")." + f.Decl.Name.Name
	}
	return f.Decl.Name.Name
}

// Module is the interprocedural view over one RunAnalyzers invocation: every
// loaded package, the module-wide call graph, and per-function summaries.
type Module struct {
	Pkgs  []*Package
	Funcs map[string]*Func
}

// FuncKey canonicalizes a function object to its cross-package identity, or
// "" when obj is not a declared function (builtins, interface methods resolve
// to a key too, but never match a declaration). Generic instantiations fold
// onto their origin declaration.
func FuncKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		name := "?"
		switch t := rt.(type) {
		case *types.Named:
			name = t.Obj().Name()
		case *types.Interface:
			return "" // interface method: no body to analyze
		}
		return pkg.Path() + "." + name + "." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}

// BuildModule constructs the call graph and computes every summary bottom-up
// over the SCC condensation.
func BuildModule(pkgs []*Package) *Module {
	mod := &Module{Pkgs: pkgs, Funcs: map[string]*Func{}}
	// Pass 1: register declarations.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[d.Name]
				key := FuncKey(obj)
				if key == "" {
					continue
				}
				mod.Funcs[key] = &Func{Obj: obj, Decl: d, Pkg: pkg}
			}
		}
	}
	// Pass 2: reference edges.
	for _, f := range mod.Funcs {
		f.Calls = mod.collectEdges(f)
	}
	// Pass 3: bottom-up summaries over the SCC condensation. Tarjan emits
	// each component only after every component it can reach, so callee
	// summaries are final (up to in-SCC fixpoint) when a caller is analyzed.
	for _, scc := range mod.sccs() {
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				old := f.Sum
				f.Sum = computeSummary(mod, f)
				if old != f.Sum {
					changed = true
				}
			}
		}
	}
	return mod
}

// FuncOf resolves a referenced object to its module declaration, folding
// generic instantiations and export-data objects onto the source Func.
func (m *Module) FuncOf(obj types.Object) *Func {
	if obj == nil {
		return nil
	}
	return m.Funcs[FuncKey(obj)]
}

// CalleeOf resolves the module function a call expression invokes (direct
// calls and method calls; nil for interface calls, func values, builtins, and
// out-of-module callees).
func (m *Module) CalleeOf(info *types.Info, call *ast.CallExpr) *Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return m.FuncOf(info.Uses[fun])
	case *ast.SelectorExpr:
		return m.FuncOf(info.Uses[fun.Sel])
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return m.FuncOf(info.Uses[id])
		}
	}
	return nil
}

// collectEdges walks f's body and resolves every referenced function object
// to a module declaration.
func (m *Module) collectEdges(f *Func) []*Func {
	var edges []*Func
	seen := map[*Func]bool{}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		used := f.Pkg.Info.Uses[id]
		if used == nil {
			return true
		}
		target := m.FuncOf(used)
		if target == nil || target == f {
			return true
		}
		if !seen[target] {
			seen[target] = true
			edges = append(edges, target)
		}
		return true
	})
	return edges
}

// sccs returns the strongly connected components of the call graph in
// bottom-up (callee-first) order.
func (m *Module) sccs() [][]*Func {
	var (
		stack []*Func
		out   [][]*Func
		next  = 1
	)
	for _, f := range m.Funcs {
		f.index = 0
	}
	var strongconnect func(f *Func)
	strongconnect = func(f *Func) {
		f.index, f.lowlink = next, next
		next++
		stack = append(stack, f)
		f.onStack = true
		for _, w := range f.Calls {
			if w.index == 0 {
				strongconnect(w)
				if w.lowlink < f.lowlink {
					f.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < f.lowlink {
				f.lowlink = w.index
			}
		}
		if f.lowlink == f.index {
			var scc []*Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == f {
					break
				}
			}
			out = append(out, scc)
		}
	}
	// Deterministic iteration keeps diagnostics and timings stable.
	for _, key := range sortedKeys(m.Funcs) {
		if f := m.Funcs[key]; f.index == 0 {
			strongconnect(f)
		}
	}
	return out
}

func sortedKeys(m map[string]*Func) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort: module has a few thousand functions at most
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
