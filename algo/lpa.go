package algo

import (
	"flash"
	"flash/graph"
)

type lpaProps struct {
	C   int32   // current label
	CC  int32   // candidate label this round
	Set []int32 // labels received from neighbors
}

// LPA runs label propagation for community detection (paper Algorithm 20):
// every vertex repeatedly adopts the most frequent label among its
// neighbors, for at most maxIters rounds or until no label changes.
// Initial labels are the vertex ids. Ties break toward the smaller label so
// the result is deterministic.
func LPA(g *graph.Graph, maxIters int, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[lpaProps]) ([]int32, error) {
		e.VertexMap(e.All(), nil, func(v flash.Vertex[lpaProps]) lpaProps {
			return lpaProps{C: int32(v.ID), CC: int32(v.ID)}
		})
		for it := 0; it < maxIters; it++ {
			// Collect neighbor labels (reset the multiset first).
			e.VertexMap(e.All(), nil, func(v flash.Vertex[lpaProps]) lpaProps {
				nv := *v.Val
				nv.Set = nil
				return nv
			})
			e.EdgeMap(e.All(), e.E(),
				nil,
				func(s, d flash.Vertex[lpaProps]) lpaProps {
					nv := *d.Val
					nv.Set = append(append([]int32(nil), nv.Set...), s.Val.C)
					return nv
				},
				nil,
				func(t, cur lpaProps) lpaProps {
					cur.Set = append(cur.Set, t.Set...)
					return cur
				},
				flash.NoSync()) // Set is master-local (not critical, Table II)
			// Pick the most frequent neighbor label, then drop the multiset so
			// later syncs ship only the small critical fields.
			e.VertexMap(e.All(), nil, func(v flash.Vertex[lpaProps]) lpaProps {
				nv := *v.Val
				if len(nv.Set) == 0 {
					nv.Set = nil
					return nv
				}
				count := make(map[int32]int, len(nv.Set))
				best, bestN := nv.CC, 0
				for _, l := range nv.Set {
					count[l]++
					c := count[l]
					if c > bestN || (c == bestN && l < best) {
						best, bestN = l, c
					}
				}
				nv.CC = best
				nv.Set = nil
				return nv
			}, flash.NoSync()) // CC and Set are read only by the master
			changed := e.VertexMap(e.All(),
				func(v flash.Vertex[lpaProps]) bool { return v.Val.C != v.Val.CC },
				func(v flash.Vertex[lpaProps]) lpaProps {
					nv := *v.Val
					nv.C = nv.CC
					nv.Set = nil
					return nv
				})
			if changed.Size() == 0 {
				break
			}
		}

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *lpaProps) { out[v] = val.C })
		return out, nil
	})
}
