package algo

import (
	"flash"
	"flash/graph"
)

type ccOptProps struct {
	P   uint32 // parent pointer maintaining the hook forest
	Mn  uint32 // min parent label among neighbors this round
	Old uint32 // parent at round start, for change detection
}

// CCOptResult carries the labels and the round count, which the paper's
// Appendix B highlights (7 rounds vs 6262 label-propagation iterations on
// road-USA).
type CCOptResult struct {
	Labels []uint32
	Rounds int
}

// CCOpt computes connected components with the optimized tree-hooking +
// pointer-jumping algorithm of Qin et al. (paper Algorithm 10): each vertex
// keeps a parent pointer p forming a forest; every round hooks trees onto
// smaller-labelled neighbors' trees and then applies pointer jumping
// p(v) = p(p(v)). Messages travel along *virtual* edges (v -> v.p and
// v.p -> v), the paper's communication beyond neighborhood, so the round
// count is O(log n) instead of O(diameter).
//
// The paper's Algorithm 10 pseudocode has unbound variables (A) and
// unbalanced operations; this implementation follows the same
// hook-and-jump structure in its cited source's min-label form.
func CCOpt(g *graph.Graph, opts ...flash.Option) (CCOptResult, error) {
	return run(g, opts, func(e *flash.Engine[ccOptProps]) (CCOptResult, error) {
		// Virtual edge sets over the parent pointers.
		hookEdges := flash.OutEdges(func(c *flash.Ctx[ccOptProps], u graph.VID) []graph.VID {
			return []graph.VID{graph.VID(c.Get(u).P)} // join(U, p): u -> u.p
		})
		jumpEdges := flash.InEdges(func(c *flash.Ctx[ccOptProps], d graph.VID) []graph.VID {
			return []graph.VID{graph.VID(c.Get(d).P)} // join(p, V): v.p -> v
		})

		e.VertexMap(e.All(), nil, func(v flash.Vertex[ccOptProps]) ccOptProps {
			return ccOptProps{P: uint32(v.ID), Mn: uint32(v.ID), Old: uint32(v.ID)}
		})

		rounds := 0
		for {
			rounds++
			// Snapshot p for change detection and reset the neighbor minimum.
			e.VertexMap(e.All(), nil, func(v flash.Vertex[ccOptProps]) ccOptProps {
				nv := *v.Val
				nv.Old = nv.P
				nv.Mn = nv.P
				return nv
			})
			// Gather the minimum parent label over real neighbors.
			e.EdgeMap(e.All(), e.E(),
				func(s, d flash.Vertex[ccOptProps]) bool { return s.Val.P < d.Val.Mn },
				func(s, d flash.Vertex[ccOptProps]) ccOptProps {
					nv := *d.Val
					nv.Mn = min32(nv.Mn, s.Val.P)
					return nv
				},
				nil,
				func(t, cur ccOptProps) ccOptProps {
					cur.Mn = min32(cur.Mn, t.Mn)
					return cur
				})
			// Hook: each vertex offers its neighbor-minimum to its tree root.
			e.EdgeMapSparse(e.All(), hookEdges,
				func(s, d flash.Vertex[ccOptProps]) bool { return s.Val.Mn < d.Val.P },
				func(s, d flash.Vertex[ccOptProps]) ccOptProps {
					nv := *d.Val
					nv.P = min32(nv.P, s.Val.Mn)
					return nv
				},
				nil,
				func(t, cur ccOptProps) ccOptProps {
					cur.P = min32(cur.P, t.P)
					return cur
				})
			// Pointer jumping (twice): p(v) = p(p(v)).
			for j := 0; j < 2; j++ {
				e.EdgeMapDense(e.All(), jumpEdges, nil,
					func(s, d flash.Vertex[ccOptProps]) ccOptProps {
						nv := *d.Val
						nv.P = s.Val.P
						return nv
					}, nil)
			}
			changed := e.VertexMap(e.All(), func(v flash.Vertex[ccOptProps]) bool {
				return v.Val.P != v.Val.Old
			}, nil)
			if changed.Size() == 0 {
				break
			}
		}

		res := CCOptResult{Labels: make([]uint32, g.NumVertices()), Rounds: rounds}
		e.Gather(func(v graph.VID, val *ccOptProps) { res.Labels[v] = val.P })
		return res, nil
	}, flash.WithFullMirrors())
}
