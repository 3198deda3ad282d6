package algo

import (
	"flash"
	"flash/graph"
)

type mmProps struct {
	S int32 // matched partner id, -1 while unmatched
	P int32 // temporary proposal: best (max-id) proposing neighbor
}

// MM computes a maximal matching with the greedy propose-and-marry
// algorithm (paper Algorithm 11): every unmatched vertex proposes to its
// unmatched neighbors, each target keeps the proposer with the largest id
// (the paper's tie breaking), and mutual proposals become matches. Returns
// the partner id per vertex (-1 for unmatched).
func MM(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[mmProps]) ([]int32, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[mmProps]) mmProps {
			return mmProps{S: none, P: none}
		})
		runBasicMMTraced(e, u, nil)

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *mmProps) { out[v] = val.S })
		return out, nil
	})
}

// MMActiveTrace runs MM while recording the frontier size (the set of
// unmatched vertices recomputed) entering every round; Fig. 4(a) compares
// this trace against MMOpt's.
func MMActiveTrace(g *graph.Graph, opts ...flash.Option) ([]int, error) {
	return run(g, opts, func(e *flash.Engine[mmProps]) ([]int, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[mmProps]) mmProps {
			return mmProps{S: none, P: none}
		})
		var trace []int
		runBasicMMTraced(e, u, func(active int) { trace = append(trace, active) })
		return trace, nil
	})
}

// runBasicMM drives propose-and-marry rounds from frontier u until no
// unmatched vertex receives a proposal.
func runBasicMM(e *flash.Engine[mmProps], u *flash.VertexSubset) {
	runBasicMMTraced(e, u, nil)
}

func runBasicMMTraced(e *flash.Engine[mmProps], u *flash.VertexSubset, trace func(int)) {
	for u.Size() != 0 {
		// Reset the proposals of the still-unmatched frontier.
		u = e.VertexMap(u,
			func(v flash.Vertex[mmProps]) bool { return v.Val.S == none },
			func(v flash.Vertex[mmProps]) mmProps { return mmProps{S: v.Val.S, P: none} })
		if trace != nil {
			trace(u.Size())
		}
		// Propose: unmatched targets keep their largest-id unmatched suitor.
		u = e.EdgeMap(u, e.E(),
			nil,
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
		// Marry mutual proposals.
		e.EdgeMap(u, e.E(),
			func(s, d flash.Vertex[mmProps]) bool {
				return s.Val.P == int32(d.ID) && d.Val.P == int32(s.ID)
			},
			func(s, d flash.Vertex[mmProps]) mmProps {
				nv := *d.Val
				nv.S = int32(s.ID)
				return nv
			},
			func(d flash.Vertex[mmProps]) bool { return d.Val.S == none },
			func(t, cur mmProps) mmProps { return t })
	}
}
