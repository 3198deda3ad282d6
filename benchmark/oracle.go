package main

import (
	"container/heap"
	"math"

	"flash/graph"
)

// Serial oracles: the harness owns its reference implementations, so a bug
// shared by the runtime and the algo package cannot verify itself.

// oracleBFS is queue BFS; unreachable vertices get -1.
func oracleBFS(g *graph.Graph, root graph.VID) []int32 {
	dis := make([]int32, g.NumVertices())
	for i := range dis {
		dis[i] = -1
	}
	dis[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if dis[v] < 0 {
				dis[v] = dis[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dis
}

// oraclePageRank is serial pull-style power iteration with the conventions of
// algo.PageRank at eps 0: damping 0.85, dangling mass spread uniformly,
// exactly iters rounds.
func oraclePageRank(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	const damping = 0.85
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if g.OutDegree(graph.VID(v)) == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.VID(v)) {
				sum += damping * rank[u] / float64(g.OutDegree(u))
			}
			next[v] = base + sum
		}
		rank, next = next, rank
	}
	return rank
}

// oracleCC labels every vertex with the smallest id of its weakly connected
// component, by union-find.
func oracleCC(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g.Edges(func(u, v graph.VID, _ float32) bool {
		a, b := find(uint32(u)), find(uint32(v))
		// Union toward the smaller root, so a root is its component's
		// minimum id.
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
		return true
	})
	out := make([]uint32, n)
	for i := range out {
		out[i] = find(uint32(i))
	}
	return out
}

type distItem struct {
	v graph.VID
	d float32
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// oracleSSSP is Dijkstra in float32 arithmetic. Rounded float32 addition is
// monotone, so label-setting reaches the same fixed point as the engine's
// label-correcting relaxation and the comparison is exact. Unreachable
// vertices get +Inf.
func oracleSSSP(g *graph.Graph, root graph.VID) []float32 {
	inf := float32(math.Inf(1))
	dist := make([]float32, g.NumVertices())
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	h := &distHeap{{root, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		ws := g.OutWeights(it.v)
		for i, v := range g.OutNeighbors(it.v) {
			if nd := it.d + ws[i]; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, distItem{v, nd})
			}
		}
	}
	return dist
}

// ---- result digests ----

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one word into an FNV-style running digest. Word-wise rather than
// byte-wise: digests are taken after every timed op and must stay cheap.
func mix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

func digestInt32(xs []int32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = mix(h, uint64(uint32(x)))
	}
	return h
}

func digestUint32(xs []uint32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = mix(h, uint64(x))
	}
	return h
}

func digestFloat64(xs []float64) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = mix(h, math.Float64bits(x))
	}
	return h
}

func digestBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, x := range b {
		h = mix(h, uint64(x))
	}
	return h
}

// ---- comparisons ----

// closeFloat64 compares at a relative 1e-9: the engine reduces in partition
// order, the oracle in adjacency order, so the last bits may differ.
func closeFloat64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return false
		}
	}
	return true
}
