package algo

import (
	"flash"
	"flash/graph"
)

type bipProps struct {
	Side int32 // -1 unvisited, 0/1 the two-coloring
	Bad  bool  // an odd cycle touches this vertex
}

// BipartiteResult reports whether the graph is two-colorable and, when it
// is, a valid side assignment (isolated vertices get side 0).
type BipartiteResult struct {
	IsBipartite bool
	Side        []int32
}

// Bipartite tests two-colorability with a parity BFS from every component's
// minimum vertex: conflicting parities along any edge witness an odd cycle.
func Bipartite(g *graph.Graph, opts ...flash.Option) (BipartiteResult, error) {
	return run(g, opts, func(e *flash.Engine[bipProps]) (BipartiteResult, error) {
		// Build a BFS forest, one tree per component (seeded at the smallest
		// unvisited vertex), assigning alternating sides by level.
		e.VertexMap(e.All(), nil, func(v flash.Vertex[bipProps]) bipProps {
			return bipProps{Side: -1}
		})
		for {
			seed := flash.VID(graph.NoVertex)
			e.Gather(func(v graph.VID, val *bipProps) {
				if val.Side == -1 && seed == flash.VID(graph.NoVertex) {
					seed = v
				}
			})
			if seed == flash.VID(graph.NoVertex) {
				break
			}
			e.Set(seed, bipProps{Side: 0})
			u := e.FromIDs(seed)
			for u.Size() != 0 {
				u = e.EdgeMap(u, e.E(),
					nil,
					func(s, d flash.Vertex[bipProps]) bipProps {
						return bipProps{Side: 1 - s.Val.Side}
					},
					func(d flash.Vertex[bipProps]) bool { return d.Val.Side == -1 },
					func(t, cur bipProps) bipProps { return t })
			}
		}
		// Conflict detection: any edge with equal sides marks both endpoints.
		bad := e.EdgeMap(e.All(), e.E(),
			func(s, d flash.Vertex[bipProps]) bool { return s.Val.Side == d.Val.Side },
			func(s, d flash.Vertex[bipProps]) bipProps {
				nv := *d.Val
				nv.Bad = true
				return nv
			},
			nil,
			func(t, cur bipProps) bipProps {
				cur.Bad = true
				return cur
			},
			flash.NoSync())

		res := BipartiteResult{IsBipartite: bad.Size() == 0, Side: make([]int32, g.NumVertices())}
		e.Gather(func(v graph.VID, val *bipProps) {
			s := val.Side
			if s == -1 {
				s = 0
			}
			res.Side[v] = s
		})
		return res, nil
	})
}

// MultiBFS runs a multi-source BFS: the distance to the nearest source
// (-1 when unreachable). Used for landmark labelings and as the building
// block of the BCC spanning forest.
func MultiBFS(g *graph.Graph, sources []graph.VID, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[bfsProps]) ([]int32, error) {
		e.VertexMap(e.All(), nil, func(v flash.Vertex[bfsProps]) bfsProps {
			return bfsProps{Dis: inf32}
		})
		u := e.FromIDs(sources...)
		for _, s := range sources {
			e.Set(s, bfsProps{Dis: 0})
		}
		for u.Size() != 0 {
			u = e.EdgeMap(u, e.E(),
				nil,
				func(s, d flash.Vertex[bfsProps]) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} },
				func(d flash.Vertex[bfsProps]) bool { return d.Val.Dis == inf32 },
				func(t, cur bfsProps) bfsProps { return t })
		}
		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *bfsProps) {
			if val.Dis == inf32 {
				out[v] = -1
			} else {
				out[v] = val.Dis
			}
		})
		return out, nil
	})
}
