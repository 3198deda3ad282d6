// Package lloc counts logical lines of code the way the paper's Table I
// does (after Nguyen et al.'s SLOC counting standard): comments, blank
// lines, lone braces/parentheses, package/import clauses, and input/output
// or result-extraction statements are excluded; what remains approximates
// the number of logical source statements in the algorithm's core
// functions.
package lloc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
)

// FuncCount is the logical line count of one function.
type FuncCount struct {
	Name  string
	Lines int
}

// FileReport summarizes one source file.
type FileReport struct {
	Path  string
	Funcs []FuncCount
	Total int
}

// CountFile parses a Go source file and counts logical lines per top-level
// function. Only statements inside function bodies are counted: one line
// per statement, plus one for each function signature, matching the paper's
// "core functions only" methodology (type and variable declarations outside
// functions — the data-structure definitions — are excluded). A function
// literal counts as part of the statement that holds it, with one exception
// (see body): a function whose body only returns a call that hands on a
// function literal is counted by that literal's statements.
func CountFile(path string) (FileReport, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return FileReport{}, fmt.Errorf("lloc: %w", err)
	}
	return CountSource(path, src)
}

// CountSource counts logical lines in the given source text.
func CountSource(path string, src []byte) (FileReport, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return FileReport{}, fmt.Errorf("lloc: parse %s: %w", path, err)
	}
	rep := FileReport{Path: path}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		c := 1 + countStmts(body(fn.Body)) // signature + body statements
		rep.Funcs = append(rep.Funcs, FuncCount{Name: fn.Name.Name, Lines: c})
		rep.Total += c
	}
	sort.Slice(rep.Funcs, func(i, j int) bool { return rep.Funcs[i].Name < rep.Funcs[j].Name })
	return rep, nil
}

// body returns the statements counted as a function's body: its own, or,
// when it only returns a call that takes a function literal — a driver
// wrapped as `return run(g, opts, func(e …) {…})` — the literal's, so a
// wrapped driver counts the same as the driver written out unwrapped.
func body(b *ast.BlockStmt) []ast.Stmt {
	if len(b.List) != 1 {
		return b.List
	}
	if ret, ok := b.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
		if call, ok := ret.Results[0].(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					return lit.Body.List
				}
			}
		}
	}
	return b.List
}

// countStmts counts logical statements, descending into blocks: a compound
// statement (if/for/switch/...) counts as one plus its body.
func countStmts(stmts []ast.Stmt) int {
	n := 0
	for _, s := range stmts {
		n += countStmt(s)
	}
	return n
}

func countStmt(s ast.Stmt) int {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return countStmts(st.List)
	case *ast.IfStmt:
		n := 1 + countStmts(st.Body.List)
		if st.Else != nil {
			n += countStmt(st.Else)
		}
		return n
	case *ast.ForStmt:
		return 1 + countStmts(st.Body.List)
	case *ast.RangeStmt:
		return 1 + countStmts(st.Body.List)
	case *ast.SwitchStmt:
		n := 1
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				n += 1 + countStmts(cc.Body)
			}
		}
		return n
	case *ast.TypeSwitchStmt:
		n := 1
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				n += 1 + countStmts(cc.Body)
			}
		}
		return n
	case *ast.SelectStmt:
		n := 1
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				n += 1 + countStmts(cc.Body)
			}
		}
		return n
	case *ast.LabeledStmt:
		return countStmt(st.Stmt)
	case *ast.DeclStmt, *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt,
		*ast.BranchStmt, *ast.IncDecStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt:
		return 1
	case *ast.EmptyStmt:
		return 0
	default:
		return 1
	}
}
