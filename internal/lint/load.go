package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	Error        *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data produced by
// `go list -export` — no network, no source re-type-checking of
// dependencies. Only the package under analysis is parsed from source.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// LoadConfig selects what LoadWith analyzes beyond the default (non-test
// files under the default build tags).
type LoadConfig struct {
	// Tests includes _test.go files: in-package test files are type-checked
	// together with their package (mirroring how the compiler builds the test
	// binary), and external test packages (package foo_test) are loaded as
	// separate packages named "<path>_test", importing the test-augmented
	// export of the package under test.
	Tests bool
	// Tags is a comma-separated build tag list handed to `go list -tags`, so
	// tag-gated files (e.g. flashdebug) are part of the analyzed source.
	Tags string
}

// LoadWith lists the packages matching patterns under dir (a directory
// inside the target module), type-checks each from source against export data
// for its dependencies, and returns them ready for RunAnalyzers. cfg selects
// whether _test.go files and tag-gated files are part of the analyzed source.
func LoadWith(cfg LoadConfig, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var tagArgs []string
	if cfg.Tags != "" {
		tagArgs = []string{"-tags", cfg.Tags}
	}

	depArgs := append(append([]string{}, tagArgs...), "-deps", "-export")
	if cfg.Tests {
		depArgs = append(depArgs, "-test")
	}
	depArgs = append(depArgs, "-json=ImportPath,Export,Standard")
	deps, err := goList(dir, append(depArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	// testExports maps "q" to the export of the test-augmented variant
	// "q [q.test]" — what an external test package importing q must see.
	testExports := map[string]string{}
	for _, p := range deps {
		if p.Export == "" {
			continue
		}
		if i := strings.IndexByte(p.ImportPath, ' '); i >= 0 {
			base := p.ImportPath[:i] // "q [q.test]" → "q"
			if _, dup := testExports[base]; !dup {
				testExports[base] = p.Export
			}
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // synthesized test-main package
		}
		exports[p.ImportPath] = p.Export
	}

	targetArgs := append(append([]string{}, tagArgs...),
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Standard")
	targets, err := goList(dir, append(targetArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Standard {
			continue
		}
		srcs := joinDir(t.Dir, t.GoFiles)
		if cfg.Tests {
			srcs = append(srcs, joinDir(t.Dir, t.TestGoFiles)...)
		}
		if len(srcs) > 0 {
			pkg, err := checkPackage(fset, imp, t.ImportPath, srcs)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if cfg.Tests && len(t.XTestGoFiles) > 0 {
			// The external test package sees the test-augmented export of the
			// package under test; a fresh importer keeps its cache separate.
			xexports := make(map[string]string, len(exports)+1)
			for k, v := range exports {
				xexports[k] = v
			}
			if te, ok := testExports[t.ImportPath]; ok {
				xexports[t.ImportPath] = te
			}
			ximp := exportImporter(fset, xexports)
			pkg, err := checkPackage(fset, ximp, t.ImportPath+"_test", joinDir(t.Dir, t.XTestGoFiles))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func joinDir(dir string, names []string) []string {
	var out []string
	for _, n := range names {
		out = append(out, filepath.Join(dir, n))
	}
	return out
}

// treeImporter resolves fixture-local import paths to already-checked local
// packages and everything else through export data.
type treeImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.local[path]; ok {
		return p, nil
	}
	return ti.fallback.Import(path)
}

// LoadTree type-checks a fixture directory together with its immediate
// subdirectories as a small multi-package module: a subdirectory sub/ of
// fixture dir f/ is importable as "<base(f)>/sub". Subpackages are checked
// before the root (in name order — cross-subpackage imports must respect
// it), which is how fixtures model cross-package dataflow without living
// inside the real module. Non-fixture imports resolve through `go list`
// export data obtained from moduleDir, so fixtures may also import real
// module packages.
func LoadTree(moduleDir, fixtureDir string) ([]*Package, error) {
	base := filepath.Base(fixtureDir)
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	type rawPkg struct {
		path string
		dir  string
	}
	pkgDirs := []rawPkg{}
	for _, e := range entries {
		if e.IsDir() {
			pkgDirs = append(pkgDirs, rawPkg{path: base + "/" + e.Name(), dir: filepath.Join(fixtureDir, e.Name())})
		}
	}
	sort.Slice(pkgDirs, func(i, j int) bool { return pkgDirs[i].path < pkgDirs[j].path })
	pkgDirs = append(pkgDirs, rawPkg{path: base, dir: fixtureDir}) // root last

	fset := token.NewFileSet()
	localPaths := map[string]bool{}
	for _, pd := range pkgDirs {
		localPaths[pd.path] = true
	}
	parsed := make([][]*ast.File, len(pkgDirs))
	importSet := map[string]bool{}
	for i, pd := range pkgDirs {
		dirEntries, err := os.ReadDir(pd.dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range dirEntries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(pd.dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			parsed[i] = append(parsed[i], f)
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); !localPaths[path] {
					importSet[path] = true
				}
			}
		}
	}
	if len(parsed[len(parsed)-1]) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", fixtureDir)
	}

	exports := map[string]string{}
	if len(importSet) > 0 {
		args := []string{"-deps", "-export", "-json=ImportPath,Export,Standard"}
		for path := range importSet {
			args = append(args, path)
		}
		deps, err := goList(moduleDir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	ti := &treeImporter{local: map[string]*types.Package{}, fallback: exportImporter(fset, exports)}
	var pkgs []*Package
	for i, pd := range pkgDirs {
		if len(parsed[i]) == 0 {
			continue
		}
		pkg, err := checkPackageFiles(fset, ti, pd.path, parsed[i])
		if err != nil {
			return nil, err
		}
		ti.local[pd.path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func checkPackage(fset *token.FileSet, imp types.Importer, path string, srcs []string) (*Package, error) {
	var files []*ast.File
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return checkPackageFiles(fset, imp, path, files)
}

func checkPackageFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
