// Package graph provides the immutable property-graph topology used by every
// engine in this repository: a compressed-sparse-row (CSR) representation
// with both out- and in-adjacency, optional edge weights, loaders for
// edge-list files, and deterministic synthetic generators standing in for the
// paper's datasets.
//
// Following the paper (§II, "Graph algorithms"), edges are immutable; all
// mutable algorithm state lives in per-vertex properties owned by the
// engines, not here.
package graph

import "fmt"

// VID identifies a vertex. Vertex ids are dense: a graph with n vertices uses
// ids 0..n-1.
type VID uint32

// NoVertex is a sentinel VID meaning "no vertex" (used for parent pointers
// and similar properties).
const NoVertex = VID(^uint32(0))

// Graph is an immutable directed graph in CSR form. For undirected inputs
// each edge is stored in both directions (see Builder.Directed), which is
// the convention every algorithm in this repository assumes; the in-arrays
// of such a graph are its out-arrays, so its adjacency is held once.
type Graph struct {
	n int // number of vertices
	m int // number of directed edges stored

	// Out-adjacency: out-neighbors of u are outAdj[outOff[u]:outOff[u+1]].
	outOff []int64
	outAdj []VID

	// In-adjacency: in-neighbors of v are inAdj[inOff[v]:inOff[v+1]].
	inOff []int64
	inAdj []VID

	// Optional weights aligned with outAdj and inAdj; nil for unweighted.
	outW []float32
	inW  []float32

	directed bool
	name     string

	// oocWeighted marks a skeleton of an out-of-core BlockGraph whose edge
	// weights live on disk: Weighted() must report true even though the
	// in-memory weight arrays are nil.
	oocWeighted bool
}

// Skeleton reports whether g is the in-memory skeleton of an out-of-core
// BlockGraph: degrees and offsets are resident but the adjacency is not, and
// edge access must go through the block backend.
func (g *Graph) Skeleton() bool { return g.outAdj == nil && g.m > 0 }

// skeletonPanic fails loudly when code reaches for adjacency that only
// exists on disk.
func skeletonPanic() {
	panic("graph: skeleton of an out-of-core block graph has no in-memory adjacency; edge access must go through the block backend")
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed edges. For a graph built
// with Undirected(true) this counts each undirected edge twice.
func (g *Graph) NumEdges() int { return g.m }

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether edge weights are present (on disk, for the
// skeleton of an out-of-core block graph).
func (g *Graph) Weighted() bool { return g.outW != nil || g.oocWeighted }

// Name returns the dataset name given at build time (may be empty).
func (g *Graph) Name() string { return g.name }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u VID) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutNeighbors returns the out-neighbor slice of u. Callers must not modify
// the returned slice. Panics on the skeleton of an out-of-core block graph.
func (g *Graph) OutNeighbors(u VID) []VID {
	if g.outAdj == nil && g.m > 0 {
		skeletonPanic()
	}
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the in-neighbor slice of v. Callers must not modify
// the returned slice. Panics on the skeleton of an out-of-core block graph.
func (g *Graph) InNeighbors(v VID) []VID {
	if g.inAdj == nil && g.m > 0 {
		skeletonPanic()
	}
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutWeights returns weights aligned with OutNeighbors(u), or nil if the
// graph is unweighted.
func (g *Graph) OutWeights(u VID) []float32 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[u]:g.outOff[u+1]]
}

// InWeights returns weights aligned with InNeighbors(v), or nil if the graph
// is unweighted.
func (g *Graph) InWeights(v VID) []float32 {
	if g.inW == nil {
		return nil
	}
	return g.inW[g.inOff[v]:g.inOff[v+1]]
}

// HasEdge reports whether the directed edge u->v is present, using binary
// search over the sorted adjacency list.
func (g *Graph) HasEdge(u, v VID) bool {
	adj := g.OutNeighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// Edges calls f for every stored directed edge (u, v, w); w is 0 for
// unweighted graphs. Iteration stops early if f returns false. Panics on the
// skeleton of an out-of-core block graph.
func (g *Graph) Edges(f func(u, v VID, w float32) bool) {
	if g.Skeleton() {
		skeletonPanic()
	}
	for u := 0; u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for i := lo; i < hi; i++ {
			var w float32
			if g.outW != nil {
				w = g.outW[i]
			}
			if !f(VID(u), g.outAdj[i], w) {
				return
			}
		}
	}
}

// MemBytes returns the resident footprint of the CSR arrays (offsets,
// adjacency, and weights for both directions, an in-array that aliases its
// out-array once). A graph catalog serving many concurrent jobs over one
// immutable topology pays this once; per-job engine state is accounted
// separately by the engines.
func (g *Graph) MemBytes() uint64 {
	return pairBytes(g.outOff, g.inOff, 8) + pairBytes(g.outAdj, g.inAdj, 4) + pairBytes(g.outW, g.inW, 4)
}

// pairBytes is the footprint of an out-array and its in-array of size-byte
// elements, once when both share one backing array.
func pairBytes[T any](out, in []T, size uint64) uint64 {
	if cap(out) > 0 && cap(in) > 0 && &out[:1][0] == &in[:1][0] {
		return uint64(cap(out)) * size
	}
	return uint64(cap(out)+cap(in)) * size
}

// MaxOutDegree returns the largest out-degree and a vertex achieving it.
func (g *Graph) MaxOutDegree() (VID, int) {
	best, bestV := -1, VID(0)
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(VID(u)); d > best {
			best, bestV = d, VID(u)
		}
	}
	return bestV, best
}

// String summarizes the graph for logging.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := ""
	if g.Weighted() {
		w = ", weighted"
	}
	return fmt.Sprintf("graph %q: |V|=%d |E|=%d (%s%s)", g.name, g.n, g.m, kind, w)
}

// Stats holds summary statistics computed by ComputeStats.
type Stats struct {
	NumVertices int
	NumEdges    int
	MaxDegree   int
	AvgDegree   float64
	Isolated    int // vertices with no in or out edges
}

// ComputeStats scans the graph once and returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{NumVertices: g.n, NumEdges: g.m}
	for u := 0; u < g.n; u++ {
		d := g.OutDegree(VID(u))
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 && g.InDegree(VID(u)) == 0 {
			s.Isolated++
		}
	}
	if g.n > 0 {
		s.AvgDegree = float64(g.m) / float64(g.n)
	}
	return s
}
