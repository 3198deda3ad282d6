// Package linttest is a dependency-free analogue of
// golang.org/x/tools/go/analysis/analysistest: it type-checks a fixture
// directory, runs one analyzer (or the marker audit) over it, and compares
// the diagnostics against `// want "regexp"` comments in the fixture source.
//
// Expectation syntax, on the line the diagnostic is expected:
//
//	x := f() // want "part of the message" "second diagnostic on this line"
//
// A diagnostic about a line comment itself (a //flash: marker runs to the end
// of its line) takes its want as a block comment in front of it:
//
//	/* want "unknown marker" */ //flash:hotpth
//
// Quoted strings are regular expressions matched against the diagnostic
// message. Every diagnostic must match a want on its line and every want
// must be matched by a diagnostic — both directions fail the test.
// Fixture files ending in _test.go are not analyzed (mirroring the real
// loader), which is how test-only negative cases are expressed.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"flash/internal/lint"
)

// expectation is one want clause.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads fixtureDir — plus any immediate subdirectories, importable as
// "<fixture>/<sub>", so fixtures can model cross-package dataflow — and
// checks analyzer's diagnostics against the want comments in every loaded
// file.
func Run(t *testing.T, fixtureDir string, analyzer *lint.Analyzer) {
	t.Helper()
	pkgs := load(t, fixtureDir)
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}
	expect(t, pkgs, diags)
}

// RunAudit is Run for lint.AuditSuppressions in place of an analyzer.
func RunAudit(t *testing.T, fixtureDir string) {
	t.Helper()
	pkgs := load(t, fixtureDir)
	expect(t, pkgs, lint.AuditSuppressions(pkgs))
}

func load(t *testing.T, fixtureDir string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.LoadTree(fixtureDir, fixtureDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixtureDir, err)
	}
	return pkgs
}

// expect checks diags against the want comments in every file of pkgs.
func expect(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		if !consumeWant(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

var wantClause = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if block, ok := strings.CutPrefix(text, "/*"); ok {
					text = strings.TrimSuffix(block, "*/")
				} else {
					text = strings.TrimPrefix(text, "//")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantClause.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

func consumeWant(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
