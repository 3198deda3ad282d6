package algo

import (
	"flash"
	"flash/graph"
)

// MMOpt computes a maximal matching with the optimized algorithm (paper
// Algorithm 12): after the initial round, proposals are recomputed only for
// unmatched vertices whose neighborhood changed — the unmatched neighbors of
// newly matched vertices — and the marriage check runs along the *virtual*
// edge set join(U, p) (each vertex to its proposal target) instead of all
// edges. Other frameworks cannot express this because they do not support
// user-defined edge sets; Fig. 4(a) shows the resulting frontier collapse.
func MMOpt(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return mmOpt(g, nil, opts...)
}

func mmOpt(g *graph.Graph, trace func(int), opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[mmProps]) ([]int32, error) {
		// join(U, p): each proposer to its proposal target.
		proposalEdges := flash.OutEdges(func(c *flash.Ctx[mmProps], u graph.VID) []graph.VID {
			if p := c.Get(u).P; p != none {
				return []graph.VID{graph.VID(p)}
			}
			return nil
		})
		// join(A, s): each newly matched vertex to its partner.
		partnerEdges := flash.OutEdges(func(c *flash.Ctx[mmProps], u graph.VID) []graph.VID {
			if s := c.Get(u).S; s != none {
				return []graph.VID{graph.VID(s)}
			}
			return nil
		})

		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[mmProps]) mmProps {
			return mmProps{S: none, P: none}
		})
		for u.Size() != 0 {
			u = e.VertexMap(u,
				func(v flash.Vertex[mmProps]) bool { return v.Val.S == none },
				func(v flash.Vertex[mmProps]) mmProps { return mmProps{S: v.Val.S, P: none} })
			if trace != nil {
				trace(u.Size())
			}
			// Recompute proposals only where needed: any unmatched source
			// proposing into targets in U (the paper's EDGEMAPDENSE over
			// join(E, U)).
			e.EdgeMap(e.All(), e.JoinEU(e.E(), u),
				func(s, d flash.Vertex[mmProps]) bool { return s.Val.S == none },
				func(s, d flash.Vertex[mmProps]) mmProps {
					nv := *d.Val
					if int32(s.ID) > nv.P {
						nv.P = int32(s.ID)
					}
					return nv
				},
				func(d flash.Vertex[mmProps]) bool { return d.Val.S == none },
				func(t, cur mmProps) mmProps {
					if t.P > cur.P {
						cur.P = t.P
					}
					return cur
				})
			// Marry along the proposal edges: target accepts when the proposal
			// is mutual.
			a := e.EdgeMapSparse(u, proposalEdges,
				func(s, d flash.Vertex[mmProps]) bool { return d.Val.P == int32(s.ID) && s.Val.P == int32(d.ID) },
				func(s, d flash.Vertex[mmProps]) mmProps {
					nv := *d.Val
					nv.S = int32(s.ID)
					return nv
				},
				func(d flash.Vertex[mmProps]) bool { return d.Val.S == none },
				func(t, cur mmProps) mmProps { return t })
			// Reciprocal side of each new match.
			b := e.EdgeMapSparse(a, partnerEdges,
				func(s, d flash.Vertex[mmProps]) bool { return d.Val.P == int32(s.ID) },
				func(s, d flash.Vertex[mmProps]) mmProps {
					nv := *d.Val
					nv.S = int32(s.ID)
					return nv
				},
				func(d flash.Vertex[mmProps]) bool { return d.Val.S == none },
				func(t, cur mmProps) mmProps { return t })
			// Next frontier: unmatched neighbors of the newly matched.
			u = e.EdgeMapSparse(e.Union(a, b), e.E(),
				nil,
				func(s, d flash.Vertex[mmProps]) mmProps { return *d.Val },
				func(d flash.Vertex[mmProps]) bool { return d.Val.S == none },
				func(t, cur mmProps) mmProps { return cur })
		}

		// Epilogue: the narrowed frontier can go empty one round before the
		// matching is maximal in rare proposal-cycle configurations; finish any
		// leftovers with basic rounds (a no-op when already maximal).
		runBasicMM(e, e.VertexMap(e.All(),
			func(v flash.Vertex[mmProps]) bool { return v.Val.S == none }, nil))

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *mmProps) { out[v] = val.S })
		return out, nil
	}, flash.WithFullMirrors())
}

// MMOptActiveTrace records MMOpt's per-round recompute-frontier sizes for
// Fig. 4(a): only the vertices whose proposals must be refreshed, which is
// the set the optimization shrinks.
func MMOptActiveTrace(g *graph.Graph, opts ...flash.Option) ([]int, error) {
	var trace []int
	if _, err := mmOpt(g, func(active int) { trace = append(trace, active) }, opts...); err != nil {
		return nil, err
	}
	return trace, nil
}
