package algo

import (
	"math"

	"flash"
	"flash/graph"
)

type prProps struct {
	Rank float64
	Next float64
}

// PageRank runs damped power iteration (damping 0.85) until the L1 change
// drops below eps or maxIters rounds elapse. Dangling mass is redistributed
// uniformly, so ranks always sum to 1.
func PageRank(g *graph.Graph, maxIters int, eps float64, opts ...flash.Option) ([]float64, error) {
	n := float64(g.NumVertices())
	const damping = 0.85
	return run(g, opts, func(e *flash.Engine[prProps]) ([]float64, error) {
		// One All for the run: every step only reads it, and a subset built
		// before a resize is remapped when next used.
		all := e.All()
		e.VertexMap(all, nil, func(v flash.Vertex[prProps]) prProps {
			return prProps{Rank: 1 / n}
		})
		if err := prIterate(e, all, g, maxIters, eps, n, damping); err != nil {
			return nil, err
		}
		// Extract inside the program: in cluster mode Gather is a
		// communication round whose failure must unwind through Run's
		// recovery envelope, not escape as a panic.
		out := make([]float64, g.NumVertices())
		e.Gather(func(v graph.VID, val *prProps) { out[v] = val.Rank })
		return out, nil
	})
}

// prIterate runs the damped power iteration to convergence; all is the
// engine's All.
func prIterate(e *flash.Engine[prProps], all *flash.VertexSubset, g *graph.Graph, maxIters int, eps, n, damping float64) error {
	for it := 0; it < maxIters; it++ {
		// Dangling mass of this round, computed on the driver.
		dangling := e.SumFloat64(func(v graph.VID, val *prProps) float64 {
			if g.OutDegree(v) == 0 {
				return val.Rank
			}
			return 0
		})
		base := (1-damping)/n + damping*dangling/n
		// Zero Next so reductions accumulate pure contributions (the same
		// zero-base convention the paper's BC reduce relies on).
		e.VertexMap(all, nil, func(v flash.Vertex[prProps]) prProps {
			return prProps{Rank: v.Val.Rank, Next: 0}
		})
		e.EdgeMap(all, e.E(),
			nil,
			func(s, d flash.Vertex[prProps]) prProps {
				nv := *d.Val
				nv.Next += damping * s.Val.Rank / float64(s.Deg)
				return nv
			},
			nil,
			func(t, cur prProps) prProps {
				cur.Next += t.Next
				return cur
			})
		delta := e.SumFloat64(func(_ graph.VID, val *prProps) float64 {
			return math.Abs(base + val.Next - val.Rank)
		})
		e.VertexMap(all, nil, func(v flash.Vertex[prProps]) prProps {
			return prProps{Rank: base + v.Val.Next}
		})
		if delta < eps {
			break
		}
	}
	return nil
}
