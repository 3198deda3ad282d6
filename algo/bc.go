package algo

import (
	"flash"
	"flash/graph"
)

type bcProps struct {
	Level int32
	Num   float64 // σ: number of shortest paths from the root
	B     float64 // δ: dependency score
}

// BC computes betweenness-centrality dependency scores from a single root
// using Brandes' algorithm (paper Algorithm 3): a forward BFS phase counts
// shortest paths level by level while recording every frontier, then a
// backward phase over reverse(E) accumulates dependencies from the deepest
// level up. The per-level frontiers are exactly what a vertexSubset makes
// expressible; the recursion mirrors the paper's BC(S, curLevel).
func BC(g *graph.Graph, root graph.VID, opts ...flash.Option) ([]float64, error) {
	return run(g, opts, func(e *flash.Engine[bcProps]) ([]float64, error) {
		e.VertexMap(e.All(), nil, func(v flash.Vertex[bcProps]) bcProps {
			if v.ID == root {
				return bcProps{Level: 0, Num: 1}
			}
			return bcProps{Level: -1}
		})
		u := e.VertexMap(e.All(), func(v flash.Vertex[bcProps]) bool { return v.ID == root }, nil)

		var bc func(s *flash.VertexSubset, curLevel int32)
		bc = func(s *flash.VertexSubset, curLevel int32) {
			if s.Size() == 0 {
				return
			}
			// Forward: accumulate path counts into the next level. Num starts 0
			// on unvisited vertices, so the sum reduce is exact.
			a := e.EdgeMap(s, e.E(),
				nil,
				func(src, d flash.Vertex[bcProps]) bcProps {
					nv := *d.Val
					nv.Num += src.Val.Num
					return nv
				},
				func(d flash.Vertex[bcProps]) bool { return d.Val.Level == -1 },
				func(t, cur bcProps) bcProps {
					cur.Num += t.Num
					return cur
				})
			a = e.VertexMap(a, nil, func(v flash.Vertex[bcProps]) bcProps {
				nv := *v.Val
				nv.Level = curLevel
				return nv
			})
			bc(a, curLevel+1)
			// Backward: children (level ℓ) push dependencies to parents (ℓ-1)
			// over reversed edges. B starts 0 on the parents' level.
			e.EdgeMap(s, flash.Reverse(e.E()),
				func(src, d flash.Vertex[bcProps]) bool { return d.Val.Level == src.Val.Level-1 },
				func(src, d flash.Vertex[bcProps]) bcProps {
					nv := *d.Val
					nv.B += nv.Num / src.Val.Num * (1 + src.Val.B)
					return nv
				},
				nil,
				func(t, cur bcProps) bcProps {
					cur.B += t.B
					return cur
				})
		}
		bc(u, 1)

		out := make([]float64, g.NumVertices())
		e.Gather(func(v graph.VID, val *bcProps) { out[v] = val.B })
		return out, nil
	})
}
