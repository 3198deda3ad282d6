package algo

import (
	"fmt"
	"math"

	"flash"
	"flash/graph"
)

type boruvkaProps struct {
	P      uint32  // component parent pointer (root after jumping)
	BW     float32 // best crossing edge: weight, canonical endpoints
	BU     uint32
	BV     uint32
	Has    bool
	TR     uint32 // target root the component wants to hook onto
	HasTR  bool
	Chosen bool // this root picked its best edge into the forest this round
}

// MSFBoruvka computes a minimum spanning forest with fully-distributed
// Borůvka rounds expressed in FLASH: every vertex finds its lightest
// crossing edge, pushes it to its component root along the virtual edge
// v -> p(v), roots hook onto the neighboring component (with a mutual-hook
// tie-break), and pointer jumping re-flattens the forest — the same
// beyond-neighborhood machinery as the optimized CC. It complements the
// paper's Kruskal-reduce MSF (Algorithm 21) as an ablation: all work stays
// in EdgeMap/VertexMap supersteps instead of a driver-side sort.
func MSFBoruvka(g *graph.Graph, opts ...flash.Option) (MSFResult, error) {
	if !g.Weighted() {
		return MSFResult{}, fmt.Errorf("algo: MSFBoruvka requires a weighted graph")
	}
	return run(g, opts, func(e *flash.Engine[boruvkaProps]) (MSFResult, error) {
		jump := flash.InEdges(func(c *flash.Ctx[boruvkaProps], d graph.VID) []graph.VID {
			return []graph.VID{graph.VID(c.Get(d).P)}
		})
		toRoot := flash.OutEdges(func(c *flash.Ctx[boruvkaProps], u graph.VID) []graph.VID {
			return []graph.VID{graph.VID(c.Get(u).P)}
		})

		// less orders candidate edges by (weight, canonical endpoints) so every
		// component picks a globally consistent minimum and hooking cannot cycle
		// through ties.
		less := func(aw float32, au, av uint32, bw float32, bu, bv uint32) bool {
			if aw != bw {
				return aw < bw
			}
			if au != bu {
				return au < bu
			}
			return av < bv
		}

		e.VertexMap(e.All(), nil, func(v flash.Vertex[boruvkaProps]) boruvkaProps {
			return boruvkaProps{P: uint32(v.ID)}
		})

		var res MSFResult
		for round := 0; round < 64; round++ {
			// Flatten: pointer jump until every P is a root.
			for {
				changed := e.EdgeMapDense(e.All(), jump,
					func(s, d flash.Vertex[boruvkaProps]) bool { return s.Val.P != d.Val.P },
					func(s, d flash.Vertex[boruvkaProps]) boruvkaProps {
						nv := *d.Val
						nv.P = s.Val.P
						return nv
					}, nil)
				if changed.Size() == 0 {
					break
				}
			}
			// Each vertex proposes its lightest crossing edge.
			e.VertexMapC(e.All(), nil, func(c *flash.Ctx[boruvkaProps], v flash.Vertex[boruvkaProps]) boruvkaProps {
				nv := *v.Val
				nv.Has = false
				nv.HasTR = false
				nv.Chosen = false
				nv.BW = float32(math.Inf(1))
				adj := c.G.OutNeighbors(v.ID)
				ws := c.G.OutWeights(v.ID)
				for i, u := range adj {
					if c.Get(u).P == nv.P {
						continue
					}
					cu, cv := uint32(v.ID), uint32(u)
					if cu > cv {
						cu, cv = cv, cu
					}
					if !nv.Has || less(ws[i], cu, cv, nv.BW, nv.BU, nv.BV) {
						nv.BW, nv.BU, nv.BV, nv.Has = ws[i], cu, cv, true
					}
				}
				return nv
			})
			// Reduce each component's minimum at its root over v -> p(v).
			e.EdgeMapSparse(e.All(), toRoot,
				func(s, d flash.Vertex[boruvkaProps]) bool { return s.Val.Has },
				func(s, d flash.Vertex[boruvkaProps]) boruvkaProps {
					nv := *d.Val
					if !nv.Has || less(s.Val.BW, s.Val.BU, s.Val.BV, nv.BW, nv.BU, nv.BV) {
						nv.BW, nv.BU, nv.BV, nv.Has = s.Val.BW, s.Val.BU, s.Val.BV, true
					}
					return nv
				},
				nil,
				func(t, cur boruvkaProps) boruvkaProps {
					if t.Has && (!cur.Has || less(t.BW, t.BU, t.BV, cur.BW, cur.BU, cur.BV)) {
						cur.BW, cur.BU, cur.BV, cur.Has = t.BW, t.BU, t.BV, true
					}
					return cur
				})
			// Roots resolve the neighboring component their best edge reaches.
			roots := e.VertexMapC(e.All(),
				func(c *flash.Ctx[boruvkaProps], v flash.Vertex[boruvkaProps]) bool {
					return v.Val.P == uint32(v.ID) && v.Val.Has
				},
				func(c *flash.Ctx[boruvkaProps], v flash.Vertex[boruvkaProps]) boruvkaProps {
					nv := *v.Val
					tr := c.Get(graph.VID(nv.BU)).P
					if tr == nv.P {
						tr = c.Get(graph.VID(nv.BV)).P
					}
					nv.TR = tr
					nv.HasTR = tr != nv.P
					return nv
				})
			if roots.Size() == 0 {
				break
			}
			// Hook: a root joins its target component unless the hook is mutual
			// and it has the smaller id (exactly one side of a mutual pair
			// hooks, so the contraction forest stays acyclic).
			e.VertexMapC(e.All(),
				func(c *flash.Ctx[boruvkaProps], v flash.Vertex[boruvkaProps]) bool {
					if v.Val.P != uint32(v.ID) || !v.Val.HasTR {
						return false
					}
					t := c.Get(graph.VID(v.Val.TR))
					mutual := t.HasTR && t.TR == uint32(v.ID)
					return !(mutual && uint32(v.ID) < v.Val.TR)
				},
				func(c *flash.Ctx[boruvkaProps], v flash.Vertex[boruvkaProps]) boruvkaProps {
					nv := *v.Val
					nv.P = nv.TR
					nv.Chosen = true
					return nv
				})
			// Harvest the chosen edges on the driver.
			picked := 0
			e.Gather(func(v graph.VID, val *boruvkaProps) {
				if val.Chosen {
					res.Edges = append(res.Edges, MSFEdge{U: graph.VID(val.BU), V: graph.VID(val.BV), W: val.BW})
					res.Weight += float64(val.BW)
					picked++
				}
			})
			if picked == 0 {
				break
			}
		}
		return res, nil
	}, flash.WithFullMirrors())
}
