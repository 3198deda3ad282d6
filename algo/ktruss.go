package algo

import (
	"sort"

	"flash"
	"flash/graph"
)

type ktProps struct {
	Out  []uint32 // live neighbors, sorted
	Drop []uint32 // neighbors to remove next round
}

// KTruss computes the maximal k-truss: the largest subgraph in which every
// edge participates in at least k-2 triangles. It peels under-supported
// edges iteratively, the natural FLASH formulation with neighbor-list
// properties (inexpressible in fixed-property models). Returns the
// surviving edges as (u, v) pairs with u < v.
func KTruss(g *graph.Graph, k int, opts ...flash.Option) ([][2]graph.VID, error) {
	if k < 3 {
		k = 3
	}
	return run(g, opts, func(e *flash.Engine[ktProps]) ([][2]graph.VID, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[ktProps]) ktProps { return ktProps{} })
		// Materialize sorted live-neighbor lists.
		e.EdgeMap(u, e.E(),
			nil,
			func(s, d flash.Vertex[ktProps]) ktProps {
				nv := *d.Val
				nv.Out = append(append([]uint32(nil), nv.Out...), uint32(s.ID))
				return nv
			},
			nil,
			func(t, cur ktProps) ktProps {
				cur.Out = append(cur.Out, t.Out...)
				return cur
			})
		e.VertexMap(u, nil, func(v flash.Vertex[ktProps]) ktProps {
			nv := *v.Val
			sort.Slice(nv.Out, func(i, j int) bool { return nv.Out[i] < nv.Out[j] })
			return nv
		})

		support := k - 2
		for {
			// Each vertex marks the incident edges with too little support.
			// Neighbor lists of neighbors are available through their mirrors.
			e.VertexMapC(e.All(), nil, func(c *flash.Ctx[ktProps], v flash.Vertex[ktProps]) ktProps {
				nv := *v.Val
				nv.Drop = nil
				for _, w := range nv.Out {
					if uint32(v.ID) < w { // each undirected edge checked once
						common := intersectCount(nv.Out, c.Get(graph.VID(w)).Out)
						if int(common) < support {
							nv.Drop = append(nv.Drop, w)
						}
					}
				}
				return nv
			})
			// Remove the marked edges from both endpoints' lists.
			e.VertexMapC(e.All(),
				nil,
				func(c *flash.Ctx[ktProps], v flash.Vertex[ktProps]) ktProps {
					nv := *v.Val
					var remove []uint32
					remove = append(remove, nv.Drop...)
					// Edges dropped by the *other* endpoint (w < v with v in w.Drop).
					for _, w := range nv.Out {
						if uint32(v.ID) > w {
							for _, x := range c.Get(graph.VID(w)).Drop {
								if x == uint32(v.ID) {
									remove = append(remove, w)
									break
								}
							}
						}
					}
					if len(remove) == 0 {
						return nv
					}
					rm := make(map[uint32]bool, len(remove))
					for _, x := range remove {
						rm[x] = true
					}
					keep := nv.Out[:0:0]
					for _, w := range nv.Out {
						if !rm[w] {
							keep = append(keep, w)
						}
					}
					nv.Out = keep
					return nv
				})
			// Converged when no vertex dropped anything this round.
			drops := e.SumInt64(func(_ graph.VID, val *ktProps) int64 { return int64(len(val.Drop)) })
			if drops == 0 {
				break
			}
		}

		var edges [][2]graph.VID
		e.Gather(func(v graph.VID, val *ktProps) {
			for _, w := range val.Out {
				if uint32(v) < w {
					edges = append(edges, [2]graph.VID{v, graph.VID(w)})
				}
			}
		})
		return edges, nil
	})
}
