package algo

import (
	"sort"

	"flash"
	"flash/graph"
)

type tcProps struct {
	Count int64
	Out   []uint32 // higher-ranked neighbors, sorted
}

// TC counts triangles with the ranked edge-iterator algorithm (paper
// Algorithm 14): each vertex first materializes its higher-ranked neighbor
// list, then every edge (s, d) with s.id < d.id intersects the two lists;
// the ranking ensures each triangle is counted exactly once, at the edge
// joining its two lowest-ranked corners.
func TC(g *graph.Graph, opts ...flash.Option) (int64, error) {
	return run(g, opts, func(e *flash.Engine[tcProps]) (int64, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[tcProps]) tcProps {
			return tcProps{}
		})
		// Build the ranked out-lists.
		e.EdgeMap(u, e.E(),
			func(s, d flash.Vertex[tcProps]) bool { return rankAbove(s, d) },
			func(s, d flash.Vertex[tcProps]) tcProps {
				nv := *d.Val
				nv.Out = append(append([]uint32(nil), nv.Out...), uint32(s.ID))
				return nv
			},
			nil,
			func(t, cur tcProps) tcProps {
				cur.Out = append(cur.Out, t.Out...)
				return cur
			})
		e.VertexMap(u, nil, func(v flash.Vertex[tcProps]) tcProps {
			nv := *v.Val
			sort.Slice(nv.Out, func(i, j int) bool { return nv.Out[i] < nv.Out[j] })
			return nv
		})
		// Intersect along each undirected edge once (s.id < d.id).
		e.EdgeMap(u, e.E(),
			func(s, d flash.Vertex[tcProps]) bool { return s.ID < d.ID },
			func(s, d flash.Vertex[tcProps]) tcProps {
				nv := *d.Val
				nv.Count += intersectCount(s.Val.Out, d.Val.Out)
				return nv
			},
			nil,
			func(t, cur tcProps) tcProps {
				cur.Count += t.Count
				return cur
			},
			flash.NoSync()) // Count is extracted driver-side, never read remotely

		return e.SumInt64(func(_ graph.VID, val *tcProps) int64 { return val.Count }), nil
	})
}

// intersectCount returns |a ∩ b| for sorted slices.
func intersectCount(a, b []uint32) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
