package algo

import (
	"flash"
	"flash/graph"
)

type kcProps struct {
	D    int32 // remaining induced degree
	Core int32 // assigned core number
}

// KC computes the k-core decomposition by iterated peeling (paper Algorithm
// 16, following Ligra): for k = 1, 2, ... repeatedly remove vertices whose
// induced degree is below k; removed vertices have core number k-1. Returns
// the core number per vertex.
func KC(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[kcProps]) ([]int32, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[kcProps]) kcProps {
			return kcProps{D: int32(v.Deg)}
		})
		_, maxDeg := g.MaxOutDegree()
		for k := int32(1); k <= int32(maxDeg)+1; k++ {
			for {
				a := e.VertexMap(u,
					func(v flash.Vertex[kcProps]) bool { return v.Val.D < k },
					func(v flash.Vertex[kcProps]) kcProps {
						nv := *v.Val
						nv.Core = k - 1
						return nv
					})
				if a.Size() == 0 {
					break
				}
				u = e.Minus(u, a)
				// Decrement the induced degree of the removed vertices'
				// neighbors (pull over edges sourced in A, per the paper).
				e.EdgeMapDense(a, e.E(),
					nil,
					func(s, d flash.Vertex[kcProps]) kcProps {
						nv := *d.Val
						nv.D--
						return nv
					},
					nil)
			}
			if u.Size() == 0 {
				break
			}
		}

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *kcProps) { out[v] = val.Core })
		return out, nil
	})
}

type kcoProps struct {
	Core int32
	Cnt  int32
	C    []int32 // histogram of min(core(d), core(s)) over neighbors
}

// KCOpt computes core numbers with the h-index-style local refinement of
// Khaouid et al. (paper Algorithm 17): every vertex starts at core = degree
// and repeatedly lowers its estimate to the largest k such that at least k
// neighbors have core ≥ k, which converges to the exact core decomposition
// in far fewer rounds than peeling.
func KCOpt(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[kcoProps]) ([]int32, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[kcoProps]) kcoProps {
			return kcoProps{Core: int32(v.Deg)}
		})
		for u.Size() != 0 {
			// Count neighbors whose estimate is at least ours.
			u = e.VertexMap(e.All(), nil, func(v flash.Vertex[kcoProps]) kcoProps {
				nv := *v.Val
				nv.Cnt = 0
				nv.C = nil
				return nv
			}, flash.NoSync()) // Cnt and C are master-local scratch
			u = e.EdgeMap(u, e.E(),
				func(s, d flash.Vertex[kcoProps]) bool { return s.Val.Core >= d.Val.Core },
				func(s, d flash.Vertex[kcoProps]) kcoProps {
					nv := *d.Val
					nv.Cnt++
					return nv
				},
				nil,
				func(t, cur kcoProps) kcoProps {
					cur.Cnt += t.Cnt
					return cur
				},
				flash.NoSync())
			// Vertices with too few supporters must lower their estimate. The
			// filter scans all of V: a vertex with *zero* qualifying neighbors
			// is absent from the EdgeMap output yet still needs lowering.
			u = e.VertexMap(e.All(), func(v flash.Vertex[kcoProps]) bool { return v.Val.Cnt < v.Val.Core }, nil)
			if u.Size() == 0 {
				break
			}
			// Histogram neighbor estimates, capped at own estimate.
			e.EdgeMapDense(e.All(), e.JoinEU(e.E(), u),
				nil,
				func(s, d flash.Vertex[kcoProps]) kcoProps {
					nv := *d.Val
					if len(nv.C) == 0 {
						nv.C = make([]int32, nv.Core+1)
					}
					b := s.Val.Core
					if nv.Core < b {
						b = nv.Core
					}
					nv.C[b]++
					return nv
				},
				nil,
				flash.NoSync())
			// Walk the histogram down to the new estimate (h-index step).
			u = e.VertexMap(u, nil, func(v flash.Vertex[kcoProps]) kcoProps {
				nv := *v.Val
				if len(nv.C) == 0 {
					nv.Core = 0
					return nv
				}
				sum := int32(0)
				for sum+nv.C[nv.Core] < nv.Core {
					sum += nv.C[nv.Core]
					nv.Core--
				}
				nv.C = nil // drop the histogram before the critical sync
				return nv
			})
		}

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *kcoProps) { out[v] = val.Core })
		return out, nil
	})
}
