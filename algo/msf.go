package algo

import (
	"fmt"
	"sort"
	"sync"

	"flash"
	"flash/graph"
)

// MSFEdge is one edge of the spanning forest.
type MSFEdge struct {
	U, V graph.VID
	W    float32
}

// MSFResult is the forest and its total weight.
type MSFResult struct {
	Edges  []MSFEdge
	Weight float64
}

// MSF computes a minimum spanning forest (paper Algorithm 21): every worker
// runs Kruskal over its local edge partition in parallel, the surviving
// edges are reduced to the driver, and a final Kruskal pass over the union
// yields the forest — correct because an edge outside a subgraph's MSF is
// never in the whole graph's MSF. The partition-local passes and the final
// pass use the paper's pre-defined dsu helpers. The workers parameter is
// taken from the options (default 4).
func MSF(g *graph.Graph, opts ...flash.Option) (MSFResult, error) {
	if !g.Weighted() {
		return MSFResult{}, fmt.Errorf("algo: MSF requires a weighted graph (use graph.WithRandomWeights)")
	}
	// The edge partition splits the vertex ids into equal-count ranges:
	// worker w owns edges whose source is in its range.
	e, err := newEngine[struct{ X int32 }](g, opts)
	if err != nil {
		return MSFResult{}, err
	}
	workers := e.Workers()
	e.Close()

	n := g.NumVertices()
	buckets := make([][]MSFEdge, workers)
	g.Edges(func(u, v graph.VID, w float32) bool {
		if u < v { // undirected: each edge once
			b := int(u) * workers / n
			buckets[b] = append(buckets[b], MSFEdge{U: u, V: v, W: w})
		}
		return true
	})

	// Local Kruskal per partition, in parallel.
	locals := make([][]MSFEdge, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			locals[w] = kruskal(n, buckets[w])
		}()
	}
	wg.Wait()

	// Reduce and run the final pass.
	var merged []MSFEdge
	for _, l := range locals {
		merged = append(merged, l...)
	}
	forest := kruskal(n, merged)

	res := MSFResult{Edges: forest}
	for _, fe := range forest {
		res.Weight += float64(fe.W)
	}
	return res, nil
}

// kruskal returns the MSF edges of the given edge list over n vertices.
func kruskal(n int, edges []MSFEdge) []MSFEdge {
	sorted := append([]MSFEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].W != sorted[j].W {
			return sorted[i].W < sorted[j].W
		}
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	f := flash.NewDSU(n)
	var out []MSFEdge
	for _, e := range sorted {
		if f.Union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}
