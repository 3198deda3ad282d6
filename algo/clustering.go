package algo

import (
	"sort"

	"flash"
	"flash/graph"
)

type clusteringProps struct {
	Tri int64    // triangles through this vertex
	Out []uint32 // sorted neighbor list
}

// ClusteringResult holds local clustering coefficients and the global
// (transitivity) coefficient.
type ClusteringResult struct {
	Local  []float64
	Global float64
}

// ClusteringCoefficient computes the local clustering coefficient of every
// vertex (triangles through v over deg(v) choose 2) and the global
// transitivity (3·triangles / open wedges). The paper's introduction names
// clustering coefficient among the algorithms vertex-centric frameworks
// struggle with, since it needs full neighbor-list exchange.
func ClusteringCoefficient(g *graph.Graph, opts ...flash.Option) (ClusteringResult, error) {
	return run(g, opts, func(e *flash.Engine[clusteringProps]) (ClusteringResult, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[clusteringProps]) clusteringProps {
			return clusteringProps{}
		})
		// Materialize sorted neighbor lists.
		e.EdgeMap(u, e.E(),
			nil,
			func(s, d flash.Vertex[clusteringProps]) clusteringProps {
				nv := *d.Val
				nv.Out = append(append([]uint32(nil), nv.Out...), uint32(s.ID))
				return nv
			},
			nil,
			func(t, cur clusteringProps) clusteringProps {
				cur.Out = append(cur.Out, t.Out...)
				return cur
			})
		e.VertexMap(u, nil, func(v flash.Vertex[clusteringProps]) clusteringProps {
			nv := *v.Val
			sort.Slice(nv.Out, func(i, j int) bool { return nv.Out[i] < nv.Out[j] })
			return nv
		})
		// Per-edge intersection: every common neighbor of (s, d) witnesses a
		// triangle through d. Each triangle contributes 2 per corner (once per
		// incident edge direction pair), so halve at extraction.
		e.EdgeMap(u, e.E(),
			nil,
			func(s, d flash.Vertex[clusteringProps]) clusteringProps {
				nv := *d.Val
				nv.Tri += intersectCount(s.Val.Out, d.Val.Out)
				return nv
			},
			nil,
			func(t, cur clusteringProps) clusteringProps {
				cur.Tri += t.Tri
				return cur
			},
			flash.NoSync()) // Tri is extracted driver-side

		res := ClusteringResult{Local: make([]float64, g.NumVertices())}
		var closed, wedges float64
		e.Gather(func(v graph.VID, val *clusteringProps) {
			deg := float64(g.OutDegree(v))
			tri := float64(val.Tri) / 2 // each triangle counted via both incident edges
			if deg >= 2 {
				res.Local[v] = tri / (deg * (deg - 1) / 2)
				wedges += deg * (deg - 1) / 2
			}
			closed += tri
		})
		if wedges > 0 {
			res.Global = closed / wedges
		}
		return res, nil
	})
}
