package algo

import (
	"flash"
	"flash/graph"
)

type ccProps struct {
	CC uint32
}

// CC computes weakly connected components by label propagation (paper
// Algorithm 9): every vertex starts with its own id and repeatedly adopts
// the minimum label among its neighbors. Simple and scalable, but needs
// O(diameter) supersteps. Returns the component label (minimum member id)
// per vertex.
func CC(g *graph.Graph, opts ...flash.Option) ([]uint32, error) {
	return run(g, opts, func(e *flash.Engine[ccProps]) ([]uint32, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[ccProps]) ccProps {
			return ccProps{CC: uint32(v.ID)}
		})
		for u.Size() != 0 {
			u = e.EdgeMap(u, e.E(),
				func(s, d flash.Vertex[ccProps]) bool { return s.Val.CC < d.Val.CC },
				func(s, d flash.Vertex[ccProps]) ccProps { return ccProps{CC: min32(s.Val.CC, d.Val.CC)} },
				nil,
				func(t, cur ccProps) ccProps { return ccProps{CC: min32(t.CC, cur.CC)} })
		}
		out := make([]uint32, g.NumVertices())
		e.Gather(func(v graph.VID, val *ccProps) { out[v] = val.CC })
		return out, nil
	})
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// CountComponents reduces component labels to the number of components.
func CountComponents(labels []uint32) int {
	seen := make(map[uint32]struct{}, 16)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
