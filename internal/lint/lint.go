// Package lint is flashvet's analyzer framework: a dependency-free skeleton
// of golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic) plus the
// two custom analyzers that machine-check runtime invariants:
//
//	hotalloc — no allocating constructs in //flash:hotpath functions
//	commerr  — transport, checkpoint-store and Run errors must be checked or waived
//
// Each analyzer is kept by a mutation of production code that it alone
// catches among the analyzers, the test suites and the allocation guards
// (DESIGN.md §6). RunAnalyzers builds a module-wide call graph with
// per-function allocation summaries (callgraph.go, summary.go), so hotalloc
// sees an allocation one call or one package away from the hot path.
//
// Every finding can be waived at its line (or the line above) with one
// marker, //flash:allow <analyzer> <reason>. AuditSuppressions rejects a
// waiver without a reason and any //flash: marker no analyzer reads, so a
// typo or a retired marker cannot silently switch a check off.
//
// The framework mirrors go/analysis closely enough that the analyzers could
// be ported to a real multichecker verbatim if x/tools ever becomes a
// dependency; it exists because this module is intentionally stdlib-only.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //flash:allow markers.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// All returns every flashvet analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		CommErr,
	}
}

// A Pass is one (analyzer, package) unit of work, mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Mod is the module-wide interprocedural view (call graph + summaries),
	// shared by every pass of one RunAnalyzers invocation.
	Mod *Module

	diags *[]Diagnostic

	// lineMarkers caches, per file line, the flash: markers present in
	// comments on that line (built lazily from the files' comment lists).
	lineMarkers map[string]map[int][]string
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless the line carries a matching
// //flash:allow <analyzer> <reason> suppression marker.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether the diagnostic line (or the line above it, for
// markers placed on their own line) carries //flash:allow <analyzer> <reason>.
func (p *Pass) allowedAt(pos token.Position) bool {
	for _, m := range p.markersAt(pos.Filename, pos.Line) {
		if rest, ok := strings.CutPrefix(m, "allow "); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 2 && fields[0] == p.Analyzer.Name {
				return true // name plus a non-empty reason
			}
		}
	}
	return false
}

// markersAt returns the flash: markers on line and line-1 of file.
func (p *Pass) markersAt(file string, line int) []string {
	if p.lineMarkers == nil {
		p.lineMarkers = map[string]map[int][]string{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body, ok := strings.CutPrefix(c.Text, "//flash:")
					if !ok {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					byLine := p.lineMarkers[cp.Filename]
					if byLine == nil {
						byLine = map[int][]string{}
						p.lineMarkers[cp.Filename] = byLine
					}
					byLine[cp.Line] = append(byLine[cp.Line], strings.TrimSpace(body))
				}
			}
		}
	}
	byLine := p.lineMarkers[file]
	return append(append([]string(nil), byLine[line]...), byLine[line-1]...)
}

// HasMarker reports whether the doc comment of decl contains //flash:<name>.
func HasMarker(decl *ast.FuncDecl, name string) bool {
	return commentGroupHasMarker(decl.Doc, name)
}

func commentGroupHasMarker(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		body, ok := strings.CutPrefix(c.Text, "//flash:")
		if !ok {
			continue
		}
		if field := strings.Fields(body); len(field) > 0 && field[0] == name {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersTimed(pkgs, analyzers)
	return diags, err
}

// A Timing is one analyzer's cumulative wall time across all packages. The
// summary-engine build is reported under the pseudo-analyzer name "summaries".
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzersTimed is RunAnalyzers plus per-analyzer wall times, so CI can
// track lint cost like a benchmark.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	start := time.Now()
	mod := BuildModule(pkgs)
	timings := []Timing{{Name: "summaries", Elapsed: time.Since(start)}}

	var diags []Diagnostic
	for _, a := range analyzers {
		start = time.Now()
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Mod:      mod,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		timings = append(timings, Timing{Name: a.Name, Elapsed: time.Since(start)})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, timings, nil
}

// knownMarkers are the //flash:<name> markers some analyzer reads; any other
// name is a typo or a leftover that silently checks nothing.
var knownMarkers = map[string]bool{
	"allow":     true, // Pass.Reportf: //flash:allow <analyzer> <reason>
	"hotpath":   true, // hotalloc roots
	"amortized": true, // hotalloc: a callee that allocates off the per-element path
}

// AuditSuppressions scans every loaded file for //flash: markers that do not
// do what they say: a //flash:allow without "<analyzer> <reason...>" (a
// reasonless suppression silences the check and records nothing), and a
// marker name no analyzer reads (//flash:hotpth turns hotalloc off for that
// function without a word). flashvet and the self-check both fail on them.
func AuditSuppressions(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body, ok := strings.CutPrefix(c.Text, "//flash:")
					if !ok {
						continue
					}
					fields := strings.Fields(body)
					name := ""
					if len(fields) > 0 {
						name, _, _ = strings.Cut(fields[0], "(")
					}
					var msg string
					switch {
					case !knownMarkers[name]:
						msg = fmt.Sprintf("unknown marker //flash:%s: no analyzer reads it, so it checks nothing", name)
					case name == "allow" && len(fields) < 3:
						msg = "//flash:allow without \"<analyzer> <reason>\": a reasonless suppression records nothing; state why the diagnostic is safe"
					default:
						continue
					}
					out = append(out, Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "suppression-audit",
						Message:  msg,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// receiverTypeName resolves the named type (sans pointer) a method selection
// is invoked on, or "" when the callee is not a method call.
func receiverTypeName(info *types.Info, call *ast.CallExpr) (typeName, methodName string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", "" // package-qualified call or conversion
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", ""
	}
	return named.Obj().Name(), sel.Sel.Name
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
