// Command graphgen emits the synthetic dataset analogs (or any generator)
// as edge-list files loadable by flashrun and graph.LoadEdgeListFile.
//
// Usage:
//
//	graphgen -dataset TW -scale 2 -out tw.txt
//	graphgen -gen grid -rows 300 -cols 50 -out road.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"flash/bench"
	"flash/graph"
	"flash/internal/serve"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "paper dataset analog: OR, TW, US, EU, UK, SK")
		gen     = flag.String("gen", "rmat", "generator when -dataset is empty: rmat, grid, web, er, path, cycle, star, tree, randdir")
		n       = flag.Int("n", 10000, "vertices")
		m       = flag.Int("m", 80000, "edges")
		rows    = flag.Int("rows", 100, "grid rows")
		cols    = flag.Int("cols", 100, "grid cols")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		seed    = flag.Int64("seed", 42, "seed")
		weights = flag.Bool("weights", false, "attach random weights")
		out     = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	var g *graph.Graph
	if *dataset != "" {
		d, ok := bench.DatasetByAbbr(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "graphgen: unknown dataset %q\n", *dataset)
			os.Exit(1)
		}
		g = d.Build(*scale)
	} else {
		var err error
		g, err = serve.BuildGraph(serve.GraphSpec{Gen: *gen, N: *n, M: *m, Rows: *rows, Cols: *cols, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
	}
	if *weights {
		g = graph.WithRandomWeights(g, *seed)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, g)
}
