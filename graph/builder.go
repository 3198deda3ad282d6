package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
//
// Building performs: optional symmetrization (undirected mode), per-vertex
// neighbor sorting, and optional duplicate/self-loop elimination. These
// normalizations are what the algorithms in this repository assume.
type Builder struct {
	n          int
	directed   bool
	weighted   bool
	dedup      bool
	keepLoops  bool
	name       string
	srcs, dsts []VID
	ws         []float32
}

// NewBuilder returns a Builder for a graph with n vertices. By default the
// graph is undirected, unweighted, deduplicated, and self-loop-free.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, dedup: true}
}

// Directed sets whether edges are directed. For undirected graphs every
// added edge is stored in both directions.
func (b *Builder) Directed(d bool) *Builder { b.directed = d; return b }

// Weighted enables edge weights; AddEdgeW must then be used (AddEdge adds
// weight 1).
func (b *Builder) Weighted(w bool) *Builder { b.weighted = w; return b }

// Dedup sets whether parallel edges are merged (keeping the smallest weight).
func (b *Builder) Dedup(d bool) *Builder { b.dedup = d; return b }

// KeepSelfLoops retains self-loop edges (dropped by default).
func (b *Builder) KeepSelfLoops(k bool) *Builder { b.keepLoops = k; return b }

// Name attaches a dataset name carried by the built Graph.
func (b *Builder) Name(s string) *Builder { b.name = s; return b }

// AddEdge records the edge u->v (and v->u when undirected) with weight 1.
func (b *Builder) AddEdge(u, v VID) *Builder { return b.AddEdgeW(u, v, 1) }

// AddEdgeW records the edge u->v with weight w.
func (b *Builder) AddEdgeW(u, v VID, w float32) *Builder {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	if b.weighted {
		b.ws = append(b.ws, w)
	}
	return b
}

type edgeRec struct {
	u, v VID
	w    float32
}

// Build finalizes the graph. The builder may not be reused afterwards.
func (b *Builder) Build() *Graph {
	edges := make([]edgeRec, 0, len(b.srcs)*2)
	for i := range b.srcs {
		u, v := b.srcs[i], b.dsts[i]
		if u == v && !b.keepLoops {
			continue
		}
		var w float32 = 1
		if b.weighted {
			w = b.ws[i]
		}
		edges = append(edges, edgeRec{u, v, w})
		if !b.directed && u != v {
			edges = append(edges, edgeRec{v, u, w})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].w < edges[j].w
	})
	if b.dedup {
		out := edges[:0]
		for _, e := range edges {
			if len(out) > 0 && out[len(out)-1].u == e.u && out[len(out)-1].v == e.v {
				continue // keep the smallest weight (sorted above)
			}
			out = append(out, e)
		}
		edges = out
	}

	g := &Graph{n: b.n, m: len(edges), directed: b.directed, name: b.name}
	g.outOff = make([]int64, b.n+1)
	g.outAdj = make([]VID, len(edges))
	if b.weighted {
		g.outW = make([]float32, len(edges))
	}
	for _, e := range edges {
		g.outOff[e.u+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	// Fill out-adjacency in sorted order directly.
	pos := make([]int64, b.n)
	copy(pos, g.outOff[:b.n])
	for _, e := range edges {
		p := pos[e.u]
		g.outAdj[p] = e.v
		if b.weighted {
			g.outW[p] = e.w
		}
		pos[e.u]++
	}
	if !b.directed {
		// Symmetrized edges make every in-row the out-row of the same vertex,
		// self-loops and multi-edges included: store one adjacency.
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
		return g
	}
	g.inOff = make([]int64, b.n+1)
	g.inAdj = make([]VID, len(edges))
	if b.weighted {
		g.inW = make([]float32, len(edges))
	}
	for _, e := range edges {
		g.inOff[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	// Fill in-adjacency; since edges are sorted by (u,v), filling by v keeps
	// each in-list sorted by source.
	copy(pos, g.inOff[:b.n])
	for _, e := range edges {
		p := pos[e.v]
		g.inAdj[p] = e.u
		if b.weighted {
			g.inW[p] = e.w
		}
		pos[e.v]++
	}
	return g
}

// FromEdges is a convenience constructor for tests and examples: it builds an
// unweighted graph from (u,v) pairs.
func FromEdges(n int, directed bool, edges [][2]VID) *Graph {
	b := NewBuilder(n).Directed(directed)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Reverse returns a new graph with every stored directed edge flipped. For
// undirected graphs (which store both directions) the result is structurally
// identical to the input.
func Reverse(g *Graph) *Graph {
	b := NewBuilder(g.n).Directed(true).Weighted(g.Weighted()).Name(g.name + "-rev")
	g.Edges(func(u, v VID, w float32) bool {
		b.AddEdgeW(v, u, w)
		return true
	})
	rg := b.Build()
	rg.directed = g.directed
	return rg
}
