// Microbenchmarks for the per-edge hot path: one EdgeMap / VertexMap
// superstep over the RMAT social-graph analog, isolated from engine
// construction so allocs/op reflect steady-state per-superstep cost.
// bench/regress_test.go guards the sparse numbers against the committed
// BENCH_flash.json baseline.
package flash_test

import (
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

type hotProps struct{ Dis int32 }

// hotEngine builds an engine over the OR social analog with a seeded
// mid-size frontier, mirroring the middle supersteps of a BFS where the
// sparse kernel does the bulk of its work.
func hotEngine(b *testing.B, n int, opts ...flash.Option) (*flash.Engine[hotProps], *flash.VertexSubset) {
	b.Helper()
	g := graph.GenRMAT(n, n*12, 101)
	e, err := flash.NewEngine[hotProps](g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	e.VertexMap(e.All(), nil, func(v flash.Vertex[hotProps]) hotProps {
		return hotProps{Dis: int32(v.ID) % 64}
	})
	ids := make([]flash.VID, 0, n/16)
	for v := 0; v < n; v += 16 {
		ids = append(ids, flash.VID(v))
	}
	return e, e.FromIDs(ids...)
}

func hotUpdate(s, d flash.Vertex[hotProps]) hotProps {
	if nd := s.Val.Dis + 1; nd < d.Val.Dis {
		return hotProps{Dis: nd}
	}
	return *d.Val
}

func hotReduce(t, cur hotProps) hotProps {
	if t.Dis < cur.Dis {
		return t
	}
	return cur
}

// BenchmarkEdgeMapSparse measures one push-mode superstep (phase 1
// accumulate, phase 2 exchange, phase 3 apply, mirror sync).
func BenchmarkEdgeMapSparse(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []flash.Option
	}{
		{"w1t1", []flash.Option{flash.WithWorkers(1)}},
		{"w4t1", []flash.Option{flash.WithWorkers(4)}},
		{"w4t4", []flash.Option{flash.WithWorkers(4), flash.WithThreads(4)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, U := hotEngine(b, 4096, c.opts...)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EdgeMapSparse(U, e.E(), nil, hotUpdate, nil, hotReduce)
			}
		})
	}
}

// BenchmarkEdgeMapDense measures one pull-mode superstep (frontier
// broadcast, in-edge scan, mirror sync).
func BenchmarkEdgeMapDense(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []flash.Option
	}{
		{"w4t1", []flash.Option{flash.WithWorkers(4)}},
		{"w4t4", []flash.Option{flash.WithWorkers(4), flash.WithThreads(4)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, U := hotEngine(b, 4096, c.opts...)
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EdgeMapDense(U, e.E(), nil, hotUpdate, nil)
			}
		})
	}
}

// denseProps is PageRank's value shape: the rank and the sum being pulled.
type denseProps struct{ Rank, Next float64 }

// denseUpdate is PageRank's per-edge M: it reads the source's out-degree.
func denseUpdate(s, d flash.Vertex[denseProps]) denseProps {
	nv := *d.Val
	nv.Next += 0.85 * s.Val.Rank / float64(s.Deg)
	return nv
}

func denseReduce(t, cur denseProps) denseProps {
	cur.Next += t.Next
	return cur
}

// BenchmarkEdgeMapDensePageRank measures one PageRank-shaped pull superstep
// through the public API: an All frontier, a two-float value and an M that
// reads s.Deg, so ns/op over the graph's edge count is the per-edge pull
// cost.
func BenchmarkEdgeMapDensePageRank(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []flash.Option
	}{
		{"w1t1", []flash.Option{flash.WithWorkers(1)}},
		{"w2t1", []flash.Option{flash.WithWorkers(2)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := graph.GenRMAT(16384, 16384*16, 101)
			e, err := flash.NewEngine[denseProps](g, c.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			e.VertexMap(e.All(), nil, func(v flash.Vertex[denseProps]) denseProps {
				return denseProps{Rank: 1 / float64(g.NumVertices())}
			})
			all := e.All()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EdgeMap(all, e.E(), nil, denseUpdate, nil, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkVertexMap measures one full-frontier VertexMap superstep.
func BenchmarkVertexMap(b *testing.B) {
	e, _ := hotEngine(b, 4096, flash.WithWorkers(4))
	defer e.Close()
	all := e.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.VertexMap(all, nil, func(v flash.Vertex[hotProps]) hotProps {
			return hotProps{Dis: v.Val.Dis}
		})
	}
}

// BenchmarkBFSEndToEnd measures a whole BFS (engine construction included)
// on the OR analog, the figure the fixed suite records as ns/op.
func BenchmarkBFSEndToEnd(b *testing.B) {
	g := graph.GenRMAT(4096, 4096*12, 101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.BFS(g, 0, flash.WithWorkers(4)); err != nil {
			b.Fatal(err)
		}
	}
}
