package algo

import (
	"flash"
	"flash/graph"
)

type sccProps struct {
	SCC int32 // assigned component id, -1 while unassigned
	FID int32 // forward color: min id that reaches this vertex
}

// SCC computes strongly connected components of a directed graph with the
// parallel coloring algorithm of Orzan (paper Algorithm 18): each outer
// round (1) colors the unassigned vertices by the minimum id that can reach
// them along forward edges, then (2) walks backwards from each color root
// over reverse edges, restricted to vertices of the same color, assigning
// them to the root's component. Returns the component id (the root's id)
// per vertex.
func SCC(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[sccProps]) ([]int32, error) {
		a := e.VertexMap(e.All(), nil, func(v flash.Vertex[sccProps]) sccProps {
			return sccProps{SCC: none}
		})
		for a.Size() != 0 {
			// Phase 1: forward min-id coloring within the unassigned subgraph.
			b := e.VertexMap(a, nil, func(v flash.Vertex[sccProps]) sccProps {
				nv := *v.Val
				nv.FID = int32(v.ID)
				return nv
			})
			for b.Size() != 0 {
				b = e.EdgeMap(b, e.JoinEU(e.E(), a),
					func(s, d flash.Vertex[sccProps]) bool { return s.Val.FID < d.Val.FID },
					func(s, d flash.Vertex[sccProps]) sccProps {
						nv := *d.Val
						if s.Val.FID < nv.FID {
							nv.FID = s.Val.FID
						}
						return nv
					},
					func(d flash.Vertex[sccProps]) bool { return d.Val.SCC == none },
					func(t, cur sccProps) sccProps {
						if t.FID < cur.FID {
							cur.FID = t.FID
						}
						return cur
					})
			}
			// Phase 2: color roots claim their component via reverse edges.
			b = e.VertexMap(a,
				func(v flash.Vertex[sccProps]) bool { return v.Val.FID == int32(v.ID) },
				func(v flash.Vertex[sccProps]) sccProps {
					nv := *v.Val
					nv.SCC = int32(v.ID)
					return nv
				})
			for b.Size() != 0 {
				b = e.EdgeMap(b, e.JoinEU(flash.Reverse(e.E()), a),
					func(s, d flash.Vertex[sccProps]) bool { return s.Val.SCC == d.Val.FID },
					func(s, d flash.Vertex[sccProps]) sccProps {
						nv := *d.Val
						nv.SCC = nv.FID
						return nv
					},
					func(d flash.Vertex[sccProps]) bool { return d.Val.SCC == none },
					func(t, cur sccProps) sccProps { return t })
			}
			a = e.VertexMap(e.All(), func(v flash.Vertex[sccProps]) bool { return v.Val.SCC == none }, nil)
		}

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *sccProps) { out[v] = val.SCC })
		return out, nil
	})
}
