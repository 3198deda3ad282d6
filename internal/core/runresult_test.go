package core

import (
	"testing"

	"flash/graph"
)

// opProps carries both halves of TestRunResultCounts' program: a BFS
// distance and a pull-mode rank.
type opProps struct {
	Dis    int32
	R, Acc float64
}

// bfsThenRank runs BFS from each root in auto mode (push and pull
// supersteps both) and then iters pull-mode rank iterations, all over e.E().
func bfsThenRank(e *Engine[opProps], roots []graph.VID, iters int) {
	for _, root := range roots {
		e.VertexMap(e.All(), nil, func(v Vtx[opProps]) opProps {
			if v.ID == root {
				return opProps{}
			}
			return opProps{Dis: inf}
		}, StepOpts{})
		for u := e.FromIDs(root); u.Size() != 0; {
			u = e.EdgeMap(u, e.E(),
				Weighted(nil, func(s, d Vtx[opProps], _ float32) opProps { return opProps{Dis: s.Val.Dis + 1} }),
				func(d Vtx[opProps]) bool { return d.Val.Dis == inf },
				func(t, cur opProps) opProps { return t },
				StepOpts{})
		}
	}
	n := float64(e.Graph().NumVertices())
	e.VertexMap(e.All(), nil, func(v Vtx[opProps]) opProps { return opProps{R: 1 / n} }, StepOpts{})
	for range iters {
		e.VertexMap(e.All(), nil, func(v Vtx[opProps]) opProps { return opProps{R: v.Val.R} }, StepOpts{})
		e.EdgeMapDense(e.All(), e.E(), Weighted(nil,
			func(s, d Vtx[opProps], _ float32) opProps {
				return opProps{R: d.Val.R, Acc: d.Val.Acc + s.Val.R/float64(s.Deg)}
			}), nil, StepOpts{})
		e.VertexMap(e.All(), nil, func(v Vtx[opProps]) opProps {
			return opProps{R: 0.15/n + 0.85*v.Val.Acc}
		}, StepOpts{})
	}
}

// TestRunResultCounts pins every counter a fault-free run reports for BFS
// from two roots followed by two PageRank iterations, at two workers with a
// checkpoint every three supersteps, over the CSR and over a block graph
// whose cache holds a fraction of its blocks. Every count is exact, so a
// worker record that is dropped, folded twice or not zeroed after its fold,
// or a driver-side count made twice, changes a number here.
//
// The BFS admits no block: its push steps and its pulls, which have a C,
// read rows, so it decodes exactly the active sources' out-rows (1,488
// edges) plus the in-rows of the targets unvisited at each dense step
// (29,902). PageRank's pulls have no C and decode whole blocks (61,052).
func TestRunResultCounts(t *testing.T) {
	g := graph.GenRMAT(2048, 16384, 5)
	bg := openRowsBlock(t, g)
	want := map[string]RunResult{
		"csr": {Supersteps: 22, Messages: 19849, Bytes: 418363, Checkpoints: 8, CheckpointBytes: 615184},
		"block": {Supersteps: 22, Messages: 19849, Bytes: 418363, Checkpoints: 8, CheckpointBytes: 615184,
			BlockHits: 4026, BlockMisses: 261, BlockEvictions: 66, BlockDecodedEdges: 92442,
			BlockBytesDense: 262891, BlockBytesSparse: 84766, BlockStepsDense: 7, BlockStepsSparse: 8},
	}
	for _, backend := range []string{"csr", "block"} {
		t.Run(backend, func(t *testing.T) {
			cfg, eg := Config{Workers: 2, Threads: 1, CheckpointEvery: 3}, g
			if backend == "block" {
				cfg.Shared = NewSharedBlockGraph(bg)
				cfg.BlockCacheBytes = 16 << 10
				eg = cfg.Shared.Graph()
			}
			e, err := NewEngine[opProps](eg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got, err := e.Run(func() error {
				bfsThenRank(e, []graph.VID{0, 1000}, 2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want[backend] {
				t.Fatalf("run result\n got %+v\nwant %+v", got, want[backend])
			}
		})
	}
}
