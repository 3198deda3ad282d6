package algo

import (
	"flash"
	"flash/graph"
)

type misProps struct {
	D bool   // dominated: a neighbor entered the MIS
	B bool   // still a local-minimum candidate this round
	R uint64 // priority: deg*|V| + id (lower wins), per paper Algorithm 13
}

// MIS computes a maximal independent set with Luby's algorithm as expressed
// in the paper (Algorithm 13): every round, the undecided vertices that are
// local priority minima among their undecided neighbors join the set and
// knock out their neighbors. Returns membership per vertex.
func MIS(g *graph.Graph, opts ...flash.Option) ([]bool, error) {
	return run(g, opts, func(e *flash.Engine[misProps]) ([]bool, error) {
		n := uint64(g.NumVertices())
		a := e.VertexMap(e.All(), nil, func(v flash.Vertex[misProps]) misProps {
			return misProps{D: false, B: true, R: uint64(v.Deg)*n + uint64(v.ID)}
		})
		for a.Size() != 0 {
			// Knock out candidates that have an undecided neighbor with lower
			// priority (dense over edges with targets in A).
			e.EdgeMapDense(e.All(), e.JoinEU(e.E(), a),
				func(s, d flash.Vertex[misProps]) bool { return !s.Val.D && s.Val.R < d.Val.R },
				func(s, d flash.Vertex[misProps]) misProps {
					nv := *d.Val
					nv.B = false
					return nv
				},
				func(d flash.Vertex[misProps]) bool { return d.Val.B })
			// Survivors join the MIS.
			b := e.VertexMap(a, func(v flash.Vertex[misProps]) bool { return v.Val.B }, nil)
			// Their neighbors become dominated.
			c := e.EdgeMapSparse(b, e.E(),
				nil,
				func(s, d flash.Vertex[misProps]) misProps {
					nv := *d.Val
					nv.D = true
					return nv
				},
				func(d flash.Vertex[misProps]) bool { return !d.Val.D },
				func(t, cur misProps) misProps {
					cur.D = true
					return cur
				})
			// Remaining candidates: undominated non-members, with B reset.
			a = e.VertexMap(e.Minus(a, c),
				func(v flash.Vertex[misProps]) bool { return !v.Val.B },
				func(v flash.Vertex[misProps]) misProps {
					nv := *v.Val
					nv.B = true
					return nv
				})
		}

		out := make([]bool, g.NumVertices())
		e.Gather(func(v graph.VID, val *misProps) { out[v] = !val.D })
		return out, nil
	})
}
