package algo

import (
	"sort"

	"flash"
	"flash/graph"
)

type rcProps struct {
	Count int64
	Out   []uint32 // all neighbors, sorted
	OutL  []uint32 // neighbors with larger id, sorted
}

// RC counts rectangles (4-cycles) with the two-hop intersection algorithm
// (paper Algorithm 22): after materializing neighbor lists, every two-hop
// pair (s, d) with s.id < d.id counts its common neighbors larger than s
// and adds C(t, 2); the id ordering makes every rectangle counted exactly
// once, at the diagonal containing its minimum vertex. The two-hop edge set
// join(E, E) is a virtual set, so this algorithm needs (and enables)
// full mirroring — which is why no neighborhood-bound framework provides RC.
func RC(g *graph.Graph, opts ...flash.Option) (int64, error) {
	return run(g, opts, func(e *flash.Engine[rcProps]) (int64, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[rcProps]) rcProps { return rcProps{} })
		// Materialize neighbor lists.
		e.EdgeMap(u, e.E(),
			nil,
			func(s, d flash.Vertex[rcProps]) rcProps {
				nv := *d.Val
				nv.Out = append(append([]uint32(nil), nv.Out...), uint32(s.ID))
				if s.ID > d.ID {
					nv.OutL = append(append([]uint32(nil), nv.OutL...), uint32(s.ID))
				}
				return nv
			},
			nil,
			func(t, cur rcProps) rcProps {
				cur.Out = append(cur.Out, t.Out...)
				cur.OutL = append(cur.OutL, t.OutL...)
				return cur
			})
		e.VertexMap(u, nil, func(v flash.Vertex[rcProps]) rcProps {
			nv := *v.Val
			sort.Slice(nv.Out, func(i, j int) bool { return nv.Out[i] < nv.Out[j] })
			sort.Slice(nv.OutL, func(i, j int) bool { return nv.OutL[i] < nv.OutL[j] })
			return nv
		})
		// Count over distinct two-hop pairs.
		e.EdgeMap(u, flash.JoinEE(e.E(), e.E()),
			func(s, d flash.Vertex[rcProps]) bool { return s.ID < d.ID },
			func(s, d flash.Vertex[rcProps]) rcProps {
				nv := *d.Val
				t := intersectCount(s.Val.OutL, d.Val.Out)
				nv.Count += t * (t - 1) / 2
				return nv
			},
			nil,
			func(t, cur rcProps) rcProps {
				cur.Count += t.Count
				return cur
			},
			flash.NoSync()) // Count is extracted driver-side

		return e.SumInt64(func(_ graph.VID, val *rcProps) int64 { return val.Count }), nil
	}, flash.WithFullMirrors())
}
