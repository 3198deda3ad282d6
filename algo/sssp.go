package algo

import (
	"math"

	"flash"
	"flash/graph"
)

type ssspProps struct {
	Dis float32
}

// SSSP computes single-source shortest path distances on a weighted graph by
// frontier-based Bellman-Ford relaxation (the standard FLASH formulation:
// EdgeMap relaxes out-edges of vertices whose distance improved).
// Unreachable vertices get +Inf.
func SSSP(g *graph.Graph, root graph.VID, opts ...flash.Option) ([]float32, error) {
	return run(g, opts, func(e *flash.Engine[ssspProps]) ([]float32, error) {
		winf := float32(math.Inf(1))
		e.VertexMap(e.All(), nil, func(v flash.Vertex[ssspProps]) ssspProps {
			if v.ID == root {
				return ssspProps{Dis: 0}
			}
			return ssspProps{Dis: winf}
		})
		u := e.FromIDs(root)
		for u.Size() != 0 {
			u = e.EdgeMapW(u, e.E(),
				func(s, d flash.Vertex[ssspProps], w float32) bool { return s.Val.Dis+w < d.Val.Dis },
				func(s, d flash.Vertex[ssspProps], w float32) ssspProps { return ssspProps{Dis: s.Val.Dis + w} },
				nil,
				func(t, cur ssspProps) ssspProps {
					if t.Dis < cur.Dis {
						return t
					}
					return cur
				})
		}
		out := make([]float32, g.NumVertices())
		e.Gather(func(v graph.VID, val *ssspProps) { out[v] = val.Dis })
		return out, nil
	})
}
