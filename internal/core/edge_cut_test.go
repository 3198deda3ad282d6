package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"flash/graph"
)

// Engine-level coverage of the edge-balanced range cut and the slot-indexed
// degree table: the table agrees with the graph in every layout, workers the
// cut leaves without masters still compute, and an image moves across a
// width change on a graph whose cut is uneven by vertex count.

// TestDegreeTableMatchesGraph checks every resident slot of every worker
// after a pull step loaded the table: range and hash placement, over an
// in-memory CSR and over a block file's skeleton, with and without
// FullMirrors.
func TestDegreeTableMatchesGraph(t *testing.T) {
	csr := graph.GenRandomDirected(300, 2000, 5) // out- and in-degrees differ
	buf := graph.EncodeBlockFile(csr, 512)
	bg, err := graph.OpenBlockReader(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bg.Close() })
	for _, backend := range []string{"csr", "block"} {
		for _, hash := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/hash=%v/full=%v", backend, hash, full), func(t *testing.T) {
					g, cfg := csr, Config{Workers: 3, UseHashPlacement: hash, FullMirrors: full}
					if backend == "block" {
						cfg.Shared = NewSharedBlockGraph(bg)
						g = cfg.Shared.Graph()
					}
					e := mustEngine(t, g, cfg)
					e.EdgeMapDense(e.All(), e.E(), Weighted(nil,
						func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }), nil, StepOpts{NoSync: true})
					for _, w := range e.workers {
						if len(w.view.Deg) != w.st.SlotCount() {
							t.Fatalf("worker %d: %d degree entries for %d slots", w.id, len(w.view.Deg), w.st.SlotCount())
						}
						for slot := range w.view.Deg {
							v := w.st.GID(slot)
							out, in := csr.OutDegree(v), csr.InDegree(v)
							if got := w.view.Deg[slot]; got != uint64(out)<<32|uint64(in) {
								t.Fatalf("worker %d slot %d (vertex %d): table %d/%d, graph %d/%d",
									w.id, slot, v, got>>32, uint32(got), out, in)
							}
						}
					}
				})
			}
		}
	}
}

// hubStar is a directed star whose nine leaves each point at hub 0 a hundred
// times: the hub costs more than two shares of the three-worker cut, so
// worker 0 holds only the hub and worker 1 holds nothing.
func hubStar() *graph.Graph {
	b := graph.NewBuilder(10).Directed(true).Dedup(false)
	for leaf := 1; leaf < 10; leaf++ {
		for k := 0; k < 100; k++ {
			b.AddEdge(graph.VID(leaf), 0)
		}
	}
	return b.Build()
}

// rankProps carries a pull-mode rank: Acc sums in-neighbors' R/Deg.
type rankProps struct {
	R, Acc float64
}

// pullRank runs iters pull-mode rank iterations on e, calling between(i)
// after iteration i, and returns the ranks. Each destination sums its
// in-neighbors in CSR order, so the bits do not depend on the partition.
func pullRank(e *Engine[rankProps], iters int, between func(i int)) []float64 {
	n := float64(e.Graph().NumVertices())
	e.VertexMap(e.All(), nil, func(v Vtx[rankProps]) rankProps { return rankProps{R: 1 / n} }, StepOpts{})
	for i := 1; i <= iters; i++ {
		e.VertexMap(e.All(), nil, func(v Vtx[rankProps]) rankProps { return rankProps{R: v.Val.R} }, StepOpts{})
		e.EdgeMapDense(e.All(), BaseE[rankProps](), Weighted(nil,
			func(s, d Vtx[rankProps], _ float32) rankProps {
				return rankProps{R: d.Val.R, Acc: d.Val.Acc + s.Val.R/float64(s.Deg)}
			}), nil, StepOpts{})
		e.VertexMap(e.All(), nil, func(v Vtx[rankProps]) rankProps {
			return rankProps{R: 0.15/n + 0.85*v.Val.Acc}
		}, StepOpts{})
		if between != nil {
			between(i)
		}
	}
	out := make([]float64, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *rankProps) { out[v] = val.R })
	return out
}

func checkRanks(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: rank[%d]=%v want %v", label, v, got[v], want[v])
		}
	}
}

// TestZeroMasterWorkers runs BFS in every mode and pull ranks where the cut
// leaves a worker without masters — hubStar at three workers, a 2-vertex path
// at four — and compares each with the one-worker run.
func TestZeroMasterWorkers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		workers int
		root    graph.VID
	}{{"hub", hubStar(), 3, 4}, {"n<m", graph.GenPath(2), 4, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.g, Config{Workers: tc.workers})
			empty := false
			for w := 0; w < tc.workers; w++ {
				empty = empty || e.place.LocalCount(w) == 0
			}
			if !empty {
				t.Fatalf("every worker holds a master; the case tests nothing")
			}
			want := seqBFS(tc.g, tc.root)
			for _, mode := range []Mode{Auto, Push, Pull} {
				checkBFS(t, runBFS(e, tc.root, mode), want, fmt.Sprintf("bfs mode %d", mode))
			}
			ranks := func(workers int) []float64 {
				re, err := NewEngine[rankProps](tc.g, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				return pullRank(re, 3, nil)
			}
			checkRanks(t, ranks(tc.workers), ranks(1), "pull ranks")
		})
	}
}

// TestRestoreAcrossWidthsRMAT resizes a two-worker run to four mid-run on
// RMAT, where the cut moves every range boundary, and compares BFS distances
// and pull ranks with the fault-free two-worker run bit for bit.
func TestRestoreAcrossWidthsRMAT(t *testing.T) {
	g := graph.GenRMAT(2048, 16384, 5)
	fixed := mustEngine(t, g, Config{Workers: 2})
	wantBFS := runBFS(fixed, 0, Auto)
	e := mustEngine(t, g, Config{Workers: 2, CheckpointEvery: 2})
	gotBFS := resizeBFS(t, e, 0, func(step int) {
		if step == 1 {
			if err := e.Resize(4); err != nil {
				t.Fatal(err)
			}
		}
	})
	checkBFS(t, gotBFS, wantBFS, "bfs resized 2→4")
	if e.Workers() != 4 || e.Metrics().Resizes != 1 {
		t.Fatalf("workers=%d resizes=%d, want 4 and 1", e.Workers(), e.Metrics().Resizes)
	}

	rank := func(resize bool) []float64 {
		re, err := NewEngine[rankProps](g, Config{Workers: 2, CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return pullRank(re, 4, func(i int) {
			if resize && i == 2 {
				if err := re.Resize(4); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	checkRanks(t, rank(true), rank(false), "ranks resized 2→4")
}
