package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"

	"flash/internal/lloc"
)

// codeRef names the functions implementing one algorithm in one system.
type codeRef struct {
	File  string // repo-relative path
	Funcs []string
}

// tableIRow is one row of Table I.
type tableIRow struct {
	Algo string
	Refs map[System]codeRef // absent system = inexpressible (the paper's ✗)
}

// tableIRows maps every Table I algorithm variant to the functions that
// implement it in this repository, per system.
var tableIRows = []tableIRow{
	{"CC-basic", map[System]codeRef{
		Flash:   {"algo/cc.go", []string{"CC"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"CC"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"CC"}},
		Gemini:  {"baseline/gemini/algorithms.go", []string{"CC"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"CC"}},
	}},
	{"CC-opt", map[System]codeRef{
		Flash: {"algo/ccopt.go", []string{"CCOpt"}},
	}},
	{"BFS", map[System]codeRef{
		Flash:   {"algo/bfs.go", []string{"BFS", "bfsProgram"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"BFS"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"BFS"}},
		Gemini:  {"baseline/gemini/algorithms.go", []string{"BFS"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"BFS"}},
	}},
	{"BC", map[System]codeRef{
		Flash:   {"algo/bc.go", []string{"BC"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"BC"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"BC"}},
		Gemini:  {"baseline/gemini/algorithms.go", []string{"BC"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"BC"}},
	}},
	{"MIS", map[System]codeRef{
		Flash:   {"algo/mis.go", []string{"MIS"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"MIS"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"MIS"}},
		Gemini:  {"baseline/gemini/algorithms.go", []string{"MIS"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"MIS"}},
	}},
	{"MM-basic", map[System]codeRef{
		Flash:   {"algo/mm.go", []string{"MM", "runBasicMM"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"MM"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"MM"}},
		Gemini:  {"baseline/gemini/algorithms.go", []string{"MM"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"MM"}},
	}},
	{"MM-opt", map[System]codeRef{
		Flash: {"algo/mmopt.go", []string{"MMOpt", "mmOpt"}},
	}},
	{"KC", map[System]codeRef{
		Flash:   {"algo/kcore.go", []string{"KC"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"KC", "kcIterative"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"KC"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"KC"}},
	}},
	{"TC", map[System]codeRef{
		Flash:   {"algo/tc.go", []string{"TC", "intersectCount"}},
		Pregel:  {"baseline/pregel/algorithms.go", []string{"TC", "sortedIntersect"}},
		PowerG:  {"baseline/gas/algorithms.go", []string{"TC", "sortedIntersect"}},
		LigraSM: {"baseline/ligra/algorithms.go", []string{"TC", "sortedIntersect"}},
	}},
	{"GC", map[System]codeRef{
		Flash:  {"algo/gc.go", []string{"GC", "mex"}},
		Pregel: {"baseline/pregel/algorithms.go", []string{"GC"}},
		PowerG: {"baseline/gas/algorithms.go", []string{"GC"}},
	}},
	{"SCC", map[System]codeRef{
		Flash:  {"algo/scc.go", []string{"SCC"}},
		Pregel: {"baseline/pregel/advanced.go", []string{"SCC"}},
	}},
	{"BCC", map[System]codeRef{
		Flash:  {"algo/bcc.go", []string{"BCC"}},
		Pregel: {"baseline/pregel/advanced.go", []string{"BCC"}},
	}},
	{"LPA", map[System]codeRef{
		Flash:  {"algo/lpa.go", []string{"LPA"}},
		PowerG: {"baseline/gas/algorithms.go", []string{"LPA"}},
		Pregel: {"baseline/pregel/algorithms.go", []string{"LPA"}},
	}},
	{"MSF", map[System]codeRef{
		Flash:  {"algo/msf.go", []string{"MSF", "kruskal"}},
		Pregel: {"baseline/pregel/advanced.go", []string{"MSF"}},
	}},
	{"RC", map[System]codeRef{
		Flash: {"algo/rc.go", []string{"RC"}},
	}},
	{"CL", map[System]codeRef{
		Flash: {"algo/cl.go", []string{"CL", "countCliques", "intersect"}},
	}},
}

// RepoRoot locates the module root (the directory containing go.mod) from
// the current working directory.
func RepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// TableI counts logical lines per (algorithm, system) and prints the
// paper's Table I analog. Empty cells print as the paper's ✗.
func TableI(w io.Writer) error {
	counts, err := tableICounts()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Algo.")
	for _, s := range Systems {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, row := range tableIRows {
		fmt.Fprintf(tw, "%s", row.Algo)
		for _, s := range Systems {
			if c, ok := counts[row.Algo][s]; ok {
				fmt.Fprintf(tw, "\t%d", c)
			} else {
				fmt.Fprintf(tw, "\tx")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// tableICounts counts the logical lines of every (algorithm, system) cell
// of Table I; an inexpressible cell is absent.
func tableICounts() (map[string]map[System]int, error) {
	root, err := RepoRoot()
	if err != nil {
		return nil, err
	}
	counts := map[string]map[System]int{}
	for _, row := range tableIRows {
		counts[row.Algo] = map[System]int{}
		for sys, ref := range row.Refs {
			rep, err := lloc.CountFile(filepath.Join(root, ref.File))
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", row.Algo, sys, err)
			}
			want := map[string]bool{}
			for _, f := range ref.Funcs {
				want[f] = true
			}
			total := 0
			found := 0
			for _, fc := range rep.Funcs {
				if want[fc.Name] {
					total += fc.Lines
					found++
				}
			}
			if found != len(ref.Funcs) {
				return nil, fmt.Errorf("bench: %s/%s: found %d of %d functions in %s",
					row.Algo, sys, found, len(ref.Funcs), ref.File)
			}
			counts[row.Algo][sys] = total
		}
	}
	return counts, nil
}
