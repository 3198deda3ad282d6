package algo

import (
	"flash"
	"flash/graph"
)

type bfsProps struct {
	Dis int32
}

// BFS computes hop distances from root (paper Algorithm 2) and returns them;
// unreachable vertices get -1.
func BFS(g *graph.Graph, root graph.VID, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[bfsProps]) ([]int32, error) {
		return bfsProgram(e, root), nil
	})
}

// bfsProgram is the FLASH driver program proper.
func bfsProgram(e *flash.Engine[bfsProps], root graph.VID) []int32 {
	e.VertexMap(e.All(), nil, func(v flash.Vertex[bfsProps]) bfsProps {
		if v.ID == root {
			return bfsProps{Dis: 0}
		}
		return bfsProps{Dis: inf32}
	})
	u := e.VertexMap(e.All(), func(v flash.Vertex[bfsProps]) bool { return v.ID == root }, nil)
	for u.Size() != 0 {
		u = e.EdgeMap(u, e.E(),
			nil, // CTRUE
			func(s, d flash.Vertex[bfsProps]) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} },
			func(d flash.Vertex[bfsProps]) bool { return d.Val.Dis == inf32 },
			func(t, cur bfsProps) bfsProps { return t })
	}
	out := make([]int32, e.NumVertices())
	e.Gather(func(v graph.VID, val *bfsProps) {
		if val.Dis == inf32 {
			out[v] = -1
		} else {
			out[v] = val.Dis
		}
	})
	return out
}
