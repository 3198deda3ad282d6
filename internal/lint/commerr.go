package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CommErr enforces the PR-1 error-propagation contract: every error returned
// by the fault-surface methods — Transport.Send / EndRound / Drain (on the
// interface or any concrete transport) and Engine.Run — must be checked.
//
// A call whose result is dropped (expression statement) or assigned only to
// blank identifiers is flagged unless the line (or the line above) carries
// an explicit //flash:ignore-err <reason> marker. PR 1 made every one of
// these paths return an error precisely because a swallowed transport
// failure turns into a hung barrier or silently wrong results; the marker
// forces the "this cannot fail here" argument into the source.
//
// _test.go files are exempt: the invariant is about runtime error loss, and
// tests routinely drive the fault surface while asserting through other
// channels. The remaining analyzers do check test files in the self-check.
var CommErr = &Analyzer{
	Name: "commerr",
	Doc:  "transport Send/EndRound/Drain/Resize/ConnectPeers, Engine.Run/Resize, Coordinator.Run, serve Submit/Load/Add/Evict, and block I/O (ReadBlock/WriteBlockFile) errors must be checked or //flash:ignore-err annotated",
	Run:  runCommErr,
}

// commErrReceivers are the named types whose fault-surface methods are
// guarded. Matching is by type name so analysistest fixtures can declare
// local stubs; the shipped runtime's transports and engines all use these
// names.
var commErrReceivers = map[string]bool{
	"Transport":       true, // comm.Transport interface
	"Mem":             true, // comm.Mem
	"TCP":             true, // comm.TCP
	"Faulty":          true, // comm.Faulty chaos wrapper
	"Engine":          true, // core.Engine / flash.Engine
	"CheckpointStore": true, // core.CheckpointStore interface
	"MemStore":        true, // core.MemStore
	"FileStore":       true, // core.FileStore
	"Catalog":         true, // serve.Catalog (graph load/evict surface)
	"Server":          true, // serve.Server (job admission surface)
	"Scheduler":       true, // serve.Scheduler (job admission surface)
	"BlockGraph":      true, // graph.BlockGraph (out-of-core read surface)
	"Coordinator":     true, // cluster.Coordinator (multi-process job surface)
}

var commErrMethods = map[string]bool{
	"Send":      true,
	"EndRound":  true,
	"Drain":     true,
	"Run":       true,
	"Save":      true, // a dropped Save error silently loses checkpoint durability
	"Load":      true, // a dropped Load error restores from a phantom image
	"Resize":    true, // a dropped Resize error leaves membership half-changed
	"Submit":    true, // a dropped Submit error loses a typed admission rejection
	"Evict":     true, // a dropped Evict error hides a stale catalog entry
	"Add":       true, // a dropped Add error serves jobs from a graph that was never registered
	"ReadBlock": true, // a dropped ReadBlock error computes over a phantom (zero) block
	// Cluster mode (multi-process fleets): a dropped ConnectPeers error runs
	// a job over a half-connected mesh that deadlocks at the first barrier;
	// a dropped Coordinator.Run error loses the worker verdict (which worker
	// died, why, and whether the restart budget ran out) along with the job
	// result.
	"ConnectPeers": true,
}

// commErrPkgFuncs are package-level fault-surface functions, matched by
// package name and function name (graph.WriteBlockFile writes the on-disk
// image the whole out-of-core path trusts).
var commErrPkgFuncs = map[[2]string]bool{
	{"graph", "WriteBlockFile"}: true,
}

func runCommErr(pass *Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					checkCommCall(pass, call, "discarded")
				}
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) {
					return true
				}
				for _, rhs := range n.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						checkCommCall(pass, call, "assigned to _")
					}
				}
			case *ast.GoStmt:
				checkCommCall(pass, n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkCommCall(pass, n.Call, "discarded by defer")
			}
			return true
		})
	}
	return nil
}

func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

func checkCommCall(pass *Pass, call *ast.CallExpr, how string) {
	typeName, methodName := receiverTypeName(pass.Info, call)
	if typeName == "" {
		typeName, methodName = pkgFuncName(pass.Info, call)
		if !commErrPkgFuncs[[2]string{typeName, methodName}] {
			return
		}
	} else if !commErrReceivers[typeName] || !commErrMethods[methodName] {
		return
	}
	// Only error-returning fault-surface methods count (a fixture stub whose
	// Send returns nothing is not a transport).
	if !lastResultIsError(pass, call) {
		return
	}
	if hasIgnoreErr(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s error %s: check it or annotate with //flash:ignore-err <reason>",
		typeName, methodName, how)
}

// pkgFuncName resolves a pkg.F call to its (package name, function name)
// pair, or ("", "") for anything else.
func pkgFuncName(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pkg.Imported().Name(), sel.Sel.Name
}

func lastResultIsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if isErrorType(tv.Type) {
		return true
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok && tuple.Len() > 0 {
		return isErrorType(tuple.At(tuple.Len() - 1).Type())
	}
	return false
}

func hasIgnoreErr(pass *Pass, call *ast.CallExpr) bool {
	pos := pass.Fset.Position(call.Pos())
	for _, m := range pass.markersAt(pos.Filename, pos.Line) {
		if len(m) > len("ignore-err ") && m[:len("ignore-err ")] == "ignore-err " {
			return true // marker with a non-empty reason
		}
	}
	return false
}
