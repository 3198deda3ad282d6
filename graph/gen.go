package graph

import "math/rand"

// The generators below are deterministic for a given seed and stand in for
// the paper's real-world datasets (see DESIGN.md §1). Three structural
// regimes matter for the evaluation:
//
//   - social networks: heavy degree skew, tiny diameter (GenRMAT)
//   - road networks:   near-constant low degree, huge diameter (GenGrid)
//   - web graphs:      hubs + communities, mid diameter (GenWeb)

// GenRMAT generates a skewed "social network"-like undirected graph with n
// vertices (rounded up to a power of two internally, then trimmed) and
// approximately m undirected edges using the recursive-matrix model with the
// classic (0.57, 0.19, 0.19, 0.05) partition.
func GenRMAT(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	size := 1 << levels
	b := NewBuilder(n).Name("rmat")
	const a, bb, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for l, step := 0, size/2; l < levels; l, step = l+1, step/2 {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant: no change
			case r < a+bb:
				v += step
			case r < a+bb+c:
				u += step
			default:
				u += step
				v += step
			}
		}
		u %= n
		v %= n
		if u == v {
			continue
		}
		b.AddEdge(VID(u), VID(v))
	}
	// Chain a random permutation so the graph has a single giant component,
	// as real social graphs do; CC/BFS then touch every vertex.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(VID(perm[i-1]), VID(perm[i]))
	}
	return b.Build()
}

// GenGrid generates a rows x cols 2D grid (road-network analog): undirected,
// degree <= 4, diameter rows+cols-2. A small fraction of random "highway"
// chords can be added with chords > 0.
func GenGrid(rows, cols, chords int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	b := NewBuilder(n).Name("grid")
	id := func(r, c int) VID { return VID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	for i := 0; i < chords; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	return b.Build()
}

// GenWeb generates a "web graph"-like undirected graph: k communities of
// roughly equal size with dense intra-community preferential attachment, a
// few hub vertices per community, and sparse inter-community links.
func GenWeb(n, avgDeg, communities int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if communities < 1 {
		communities = 1
	}
	b := NewBuilder(n).Name("web")
	commOf := func(v int) int { return v * communities / n }
	commStart := func(c int) int { return (c*n + communities - 1) / communities }
	commEnd := func(c int) int { return ((c+1)*n + communities - 1) / communities }
	targets := n * avgDeg / 2
	for i := 0; i < targets; i++ {
		u := rng.Intn(n)
		c := commOf(u)
		lo, hi := commStart(c), commEnd(c)
		var v int
		switch {
		case rng.Float64() < 0.05 && communities > 1:
			v = rng.Intn(n) // cross-community link
		case rng.Float64() < 0.5:
			// preferential-ish: hubs are the first few ids of the community
			span := hi - lo
			hub := lo + rng.Intn(1+span/16)
			v = hub
		default:
			v = lo + rng.Intn(hi-lo)
		}
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	// Spanning chain for connectivity.
	for i := 1; i < n; i++ {
		if rng.Intn(8) == 0 {
			b.AddEdge(VID(i-1), VID(i))
		}
	}
	b.AddEdge(0, VID(n-1))
	for c := 1; c < communities; c++ {
		b.AddEdge(VID(commStart(c-1)), VID(commStart(c)))
	}
	return b.Build()
}

// GenErdosRenyi generates a G(n, m)-style random graph (m undirected edge
// attempts), used mainly by tests.
func GenErdosRenyi(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n).Name("er")
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	return b.Build()
}

// GenRandomDirected generates a directed random graph; used for SCC tests.
func GenRandomDirected(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n).Directed(true).Name("randdir")
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	return b.Build()
}

// GenPath generates the path 0-1-2-...-(n-1).
func GenPath(n int) *Graph {
	b := NewBuilder(n).Name("path")
	for i := 1; i < n; i++ {
		b.AddEdge(VID(i-1), VID(i))
	}
	return b.Build()
}

// GenCycle generates the n-cycle.
func GenCycle(n int) *Graph {
	b := NewBuilder(n).Name("cycle")
	for i := 0; i < n; i++ {
		b.AddEdge(VID(i), VID((i+1)%n))
	}
	return b.Build()
}

// GenStar generates a star with center 0 and n-1 leaves.
func GenStar(n int) *Graph {
	b := NewBuilder(n).Name("star")
	for i := 1; i < n; i++ {
		b.AddEdge(0, VID(i))
	}
	return b.Build()
}

// GenComplete generates the complete graph K_n.
func GenComplete(n int) *Graph {
	b := NewBuilder(n).Name("complete")
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(VID(i), VID(j))
		}
	}
	return b.Build()
}

// GenTree generates a random tree on n vertices (each vertex i>0 attaches to
// a uniformly random earlier vertex).
func GenTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n).Name("tree")
	for i := 1; i < n; i++ {
		b.AddEdge(VID(rng.Intn(i)), VID(i))
	}
	return b.Build()
}

// WithRandomWeights returns a weighted copy of g with uniform weights in
// (0, 1], mirroring the paper's "random weights are added" setup for
// unweighted inputs. Both directions of an undirected edge get equal weight,
// so an undirected copy stores one adjacency, like g.
func WithRandomWeights(g *Graph, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g.n).Directed(true).Weighted(true).Name(g.name + "-w")
	type key struct{ u, v VID }
	seen := make(map[key]float32)
	g.Edges(func(u, v VID, _ float32) bool {
		a, z := u, v
		if !g.Directed() && a > z {
			a, z = z, a
		}
		w, ok := seen[key{a, z}]
		if !ok {
			w = float32(rng.Float64()*0.999) + 0.001
			seen[key{a, z}] = w
		}
		b.AddEdgeW(u, v, w)
		return true
	})
	// Built directed: g.Edges comes sorted, which the sort passes in one scan.
	wg := b.Build()
	wg.directed = g.directed
	if !g.directed {
		wg.inOff, wg.inAdj, wg.inW = wg.outOff, wg.outAdj, wg.outW
	}
	return wg
}
