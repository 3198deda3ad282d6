package algo

import (
	"math"

	"flash"
	"flash/graph"
)

type assortProps struct {
	SumNbrDeg int64 // sum of neighbor degrees (for the local average)
}

// AssortativityResult holds the degree-mixing statistics.
type AssortativityResult struct {
	// Coefficient is the degree assortativity (Pearson correlation of
	// degrees across edges), in [-1, 1].
	Coefficient float64
	// AvgNeighborDegree[v] is the mean degree of v's neighbors (0 for
	// isolated vertices), the standard k_nn statistic.
	AvgNeighborDegree []float64
}

// Assortativity computes degree assortativity — the first analytics family
// the paper's introduction lists. Neighbor-degree sums are gathered with
// one EdgeMap; the Pearson correlation folds over edges on the driver.
func Assortativity(g *graph.Graph, opts ...flash.Option) (AssortativityResult, error) {
	return run(g, opts, func(e *flash.Engine[assortProps]) (AssortativityResult, error) {
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[assortProps]) assortProps {
			return assortProps{}
		})
		e.EdgeMap(u, e.E(),
			nil,
			func(s, d flash.Vertex[assortProps]) assortProps {
				nv := *d.Val
				nv.SumNbrDeg += int64(s.Deg)
				return nv
			},
			nil,
			func(t, cur assortProps) assortProps {
				cur.SumNbrDeg += t.SumNbrDeg
				return cur
			},
			flash.NoSync()) // extracted driver-side

		res := AssortativityResult{AvgNeighborDegree: make([]float64, g.NumVertices())}
		e.Gather(func(v graph.VID, val *assortProps) {
			if d := g.OutDegree(v); d > 0 {
				res.AvgNeighborDegree[v] = float64(val.SumNbrDeg) / float64(d)
			}
		})

		// Pearson correlation of (deg(u), deg(v)) over directed edge instances.
		var n, sx, sy, sxx, syy, sxy float64
		g.Edges(func(a, b graph.VID, _ float32) bool {
			x, y := float64(g.OutDegree(a)), float64(g.OutDegree(b))
			n++
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
			return true
		})
		if n > 0 {
			num := sxy/n - (sx/n)*(sy/n)
			den := math.Sqrt(sxx/n-(sx/n)*(sx/n)) * math.Sqrt(syy/n-(sy/n)*(sy/n))
			if den > 0 {
				res.Coefficient = num / den
			}
		}
		return res, nil
	})
}
