package algo

import (
	"sort"

	"flash"
	"flash/graph"
)

type clProps struct {
	Count int64
	Out   []uint32 // higher-ranked neighbors, sorted
}

// CL counts k-cliques with the ordered recursive algorithm of Shi et al.
// (paper Algorithm 23): after orienting edges from lower to higher rank,
// every vertex recursively extends candidate sets by intersecting with the
// oriented neighbor lists of clique members, reading arbitrary vertices'
// lists through FLASHWARE's get — another beyond-neighborhood access that
// requires full mirroring.
func CL(g *graph.Graph, k int, opts ...flash.Option) (int64, error) {
	if k < 1 {
		return 0, nil
	}
	if k == 1 {
		return int64(g.NumVertices()), nil
	}
	return run(g, opts, func(e *flash.Engine[clProps]) (int64, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[clProps]) clProps { return clProps{} })
		// Orient: Out = higher-ranked neighbors.
		e.EdgeMap(u, e.E(),
			func(s, d flash.Vertex[clProps]) bool { return rankAbove(s, d) },
			func(s, d flash.Vertex[clProps]) clProps {
				nv := *d.Val
				nv.Out = append(append([]uint32(nil), nv.Out...), uint32(s.ID))
				return nv
			},
			nil,
			func(t, cur clProps) clProps {
				cur.Out = append(cur.Out, t.Out...)
				return cur
			})
		e.VertexMap(u, nil, func(v flash.Vertex[clProps]) clProps {
			nv := *v.Val
			sort.Slice(nv.Out, func(i, j int) bool { return nv.Out[i] < nv.Out[j] })
			return nv
		})
		// Prune vertices that cannot seed a k-clique, then count recursively.
		u = e.VertexMap(u, func(v flash.Vertex[clProps]) bool { return len(v.Val.Out) >= k-1 }, nil)
		e.VertexMapC(u, nil, func(c *flash.Ctx[clProps], v flash.Vertex[clProps]) clProps {
			nv := *v.Val
			nv.Count = countCliques(c, nv.Out, 1, k)
			return nv
		})

		return e.SumInt64(func(_ graph.VID, val *clProps) int64 { return val.Count }), nil
	}, flash.WithFullMirrors())
}

// countCliques extends a partial clique of size lev whose common
// higher-ranked candidate set is cand.
func countCliques(c *flash.Ctx[clProps], cand []uint32, lev, k int) int64 {
	if lev == k-1 {
		return int64(len(cand))
	}
	var total int64
	for _, u := range cand {
		next := intersect(cand, c.Get(graph.VID(u)).Out)
		if len(next) >= k-lev-1 {
			total += countCliques(c, next, lev+1, k)
		}
	}
	return total
}

// intersect returns the sorted intersection of two sorted slices.
func intersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
