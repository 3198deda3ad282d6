package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"flash/graph"
)

// openRowsBlock encodes g into small blocks and opens the image.
func openRowsBlock(t *testing.T, g *graph.Graph) *graph.BlockGraph {
	t.Helper()
	buf := graph.EncodeBlockFile(g, 1<<10)
	bg, err := graph.OpenBlockReader(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	return bg
}

// ssspProps is a weighted shortest-path distance.
type ssspProps struct{ D float32 }

// runPushSSSP runs Bellman-Ford in forced push mode over h from root.
func runPushSSSP(e *Engine[ssspProps], h EdgeSet[ssspProps], root graph.VID) []float32 {
	e.VertexMap(e.All(), nil, func(v Vtx[ssspProps]) ssspProps {
		if v.ID == root {
			return ssspProps{}
		}
		return ssspProps{D: float32(math.Inf(1))}
	}, StepOpts{})
	u := e.FromIDs(root)
	for u.Size() != 0 {
		u = e.EdgeMapSparse(u, h,
			Weighted(func(s, d Vtx[ssspProps], w float32) bool { return s.Val.D+w < d.Val.D },
				func(s, d Vtx[ssspProps], w float32) ssspProps { return ssspProps{D: s.Val.D + w} }),
			nil,
			func(t, cur ssspProps) ssspProps { return ssspProps{D: min(t.D, cur.D)} },
			StepOpts{})
	}
	out := make([]float32, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *ssspProps) { out[v] = val.D })
	return out
}

// runPushBFS is runBFS over h in forced push mode.
func runPushBFS(e *Engine[bfsProps], h EdgeSet[bfsProps], root graph.VID) []int32 {
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
		if v.ID == root {
			return bfsProps{}
		}
		return bfsProps{Dis: inf}
	}, StepOpts{})
	u := e.FromIDs(root)
	for u.Size() != 0 {
		u = e.EdgeMap(u, h,
			Weighted(nil, func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
			func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf },
			func(t, cur bfsProps) bfsProps { return t },
			StepOpts{Mode: Push})
	}
	out := make([]int32, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *bfsProps) { out[v] = val.Dis })
	return out
}

// TestSparseRowReads covers sparse steps that read an active source's row
// from its block's encoded bytes instead of decoding and admitting the block.
//
// Results: a push BFS, a two-hop push BFS over JoinEE(E, E) — whose nested
// reads must leave the outer loop's row alone — and a push SSSP over the
// weighted block graph, with the cache at one block per worker, are
// byte-identical to the same runs over the CSR at w1/w2 × t1/t2. The first
// run over the file reads every block before any full decode of it.
//
// Mechanism: a push over all of V through empty caches decodes every stored
// edge exactly once and admits nothing; then one push step from a frontier
// through another engine's empty caches decodes exactly the active sources'
// out-degrees, admits nothing, and counts no hit.
func TestSparseRowReads(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenRandomDirected(1500, 12000, 41), 9)
	var oneBlock int64
	sizing := openRowsBlock(t, g)
	for d := range 2 {
		for i := 0; i < sizing.NumBlocks(d); i++ {
			dec, err := sizing.ReadBlock(d, i)
			if err != nil {
				t.Fatal(err)
			}
			oneBlock = max(oneBlock, dec.Bytes())
		}
	}

	bg := openRowsBlock(t, g)
	for _, workers := range []int{1, 2} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("w%dt%d", workers, threads), func(t *testing.T) {
				csr := Config{Workers: workers, Threads: threads, FullMirrors: true}
				blk := csr
				blk.Shared = NewSharedBlockGraph(bg)
				blk.BlockCacheBytes = int64(workers) * oneBlock
				ce, be := mustEngine(t, g, csr), mustEngine(t, blk.Shared.Graph(), blk)
				for _, root := range []graph.VID{0, 777} {
					if want, got := runPushBFS(ce, ce.E(), root), runPushBFS(be, be.E(), root); !slices.Equal(got, want) {
						t.Fatalf("BFS from %d over blocks differs from the CSR", root)
					}
					want := runPushBFS(ce, JoinEE(ce.E(), ce.E()), root)
					if got := runPushBFS(be, JoinEE(be.E(), be.E()), root); !slices.Equal(got, want) {
						t.Fatalf("two-hop BFS from %d over blocks differs from the CSR", root)
					}
				}
				if be.met.BlockEvictions == 0 || be.met.BlockMisses == 0 {
					t.Fatalf("a one-block cache saw %d misses, %d evictions", be.met.BlockMisses, be.met.BlockEvictions)
				}

				cs, err := NewEngine[ssspProps](g, csr)
				if err != nil {
					t.Fatal(err)
				}
				defer cs.Close()
				bs, err := NewEngine[ssspProps](blk.Shared.Graph(), blk)
				if err != nil {
					t.Fatal(err)
				}
				defer bs.Close()
				want, got := runPushSSSP(cs, cs.E(), 3), runPushSSSP(bs, bs.E(), 3)
				for v := range want {
					if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
						t.Fatalf("SSSP dist[%d] = %v over blocks, %v over the CSR", v, got[v], want[v])
					}
				}
			})
		}
	}

	t.Run("decodes-active-rows", func(t *testing.T) {
		// Every source of a push over all of V is a row read: each out-row
		// is decoded once, by the one thread that pushes from it.
		fresh := openRowsBlock(t, g)
		cfg := Config{Workers: 2, Threads: 2, Shared: NewSharedBlockGraph(fresh), BlockCacheBytes: 2 * oneBlock}
		noop := Weighted(nil, func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val })
		keep := func(t, cur bfsProps) bfsProps { return cur }
		first := mustEngine(t, cfg.Shared.Graph(), cfg)
		first.EdgeMapSparse(first.All(), first.E(), noop, nil, keep, StepOpts{})
		if got := first.met.BlockDecodedEdges; got != uint64(g.NumEdges()) {
			t.Fatalf("a push over all of V through empty caches decoded %d edges, want exactly all %d", got, g.NumEdges())
		}
		for _, w := range first.workers {
			if n := w.bcache.Bytes(); n != 0 {
				t.Fatalf("worker %d's cache holds %d bytes after a push over all of V", w.id, n)
			}
		}
		e := mustEngine(t, cfg.Shared.Graph(), cfg)
		var ids []graph.VID
		want := uint64(0)
		for v := graph.VID(0); int(v) < g.NumVertices(); v += 11 {
			ids = append(ids, v)
			want += uint64(g.OutDegree(v))
		}
		e.EdgeMapSparse(e.FromIDs(ids...), e.E(), noop, nil, keep, StepOpts{})
		if got := e.met.BlockDecodedEdges; got != want {
			t.Fatalf("a sparse step through empty caches decoded %d edges, want the active sources' %d", got, want)
		}
		if e.met.BlockHits != 0 || e.met.BlockMisses == 0 {
			t.Fatalf("sparse row reads counted %d hits, %d misses", e.met.BlockHits, e.met.BlockMisses)
		}
		for _, w := range e.workers {
			if n := w.bcache.Bytes(); n != 0 {
				t.Fatalf("worker %d's cache holds %d bytes after a step of row reads", w.id, n)
			}
		}
	})
}
