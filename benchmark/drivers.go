package main

import (
	"math"

	"flash"
	"flash/graph"
)

// Benchmark-local copies of the algo package's BFS, PageRank, CC and SSSP
// drivers. The traced run uses these instead of algo.*: the engine's
// primitives are only reachable from driver code, so to bracket each
// NewEngine / VertexMap / EdgeMap / Gather / Close call in a span from outside
// the program the harness has to own the driver. Each copy must produce the
// digest of its algo.* original on the same input; the traced run checks that
// on every op.

// tracedEngine wraps a flash.Engine so every call into the core layer is one
// span under the op's root span.
type tracedEngine[V any] struct {
	e      *flash.Engine[V]
	tr     *tracer
	parent int
	op     int
}

func newTracedEngine[V any](tr *tracer, parent, op int, g *graph.Graph, opts []flash.Option) (*tracedEngine[V], error) {
	id := tr.begin("core.NewEngine", parent, op)
	e, err := flash.NewEngine[V](g, opts...)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedEngine[V]{e: e, tr: tr, parent: parent, op: op}, nil
}

// run executes the driver program under Engine.Run, as the algo package
// does, and closes the engine (one core.Close span) whatever the outcome.
func (t *tracedEngine[V]) run(program func() error) error {
	_, err := t.e.Run(program)
	id := t.tr.begin("core.Close", t.parent, t.op)
	cerr := t.e.Close()
	t.tr.end(id)
	if err == nil {
		err = cerr
	}
	return err
}

func (t *tracedEngine[V]) vertexMap(u *flash.VertexSubset, f func(flash.Vertex[V]) bool, m func(flash.Vertex[V]) V) *flash.VertexSubset {
	id := t.tr.begin("core.VertexMap", t.parent, t.op)
	out := t.e.VertexMap(u, f, m)
	t.tr.end(id)
	return out
}

func (t *tracedEngine[V]) edgeMap(u *flash.VertexSubset,
	f func(s, d flash.Vertex[V]) bool, m func(s, d flash.Vertex[V]) V,
	c func(d flash.Vertex[V]) bool, r func(t, cur V) V) *flash.VertexSubset {
	id := t.tr.begin("core.EdgeMap", t.parent, t.op)
	out := t.e.EdgeMap(u, t.e.E(), f, m, c, r)
	t.tr.end(id)
	return out
}

func (t *tracedEngine[V]) edgeMapW(u *flash.VertexSubset,
	f func(s, d flash.Vertex[V], w float32) bool, m func(s, d flash.Vertex[V], w float32) V,
	c func(d flash.Vertex[V]) bool, r func(t, cur V) V) *flash.VertexSubset {
	id := t.tr.begin("core.EdgeMap", t.parent, t.op)
	out := t.e.EdgeMapW(u, t.e.E(), f, m, c, r)
	t.tr.end(id)
	return out
}

// gather spans both Gather and the Fold-based reductions: all are one
// driver-side pass over every master's state.
func (t *tracedEngine[V]) gather(f func(v graph.VID, val *V)) {
	id := t.tr.begin("core.Gather", t.parent, t.op)
	t.e.Gather(f)
	t.tr.end(id)
}

func (t *tracedEngine[V]) sumFloat64(f func(v graph.VID, val *V) float64) float64 {
	id := t.tr.begin("core.Gather", t.parent, t.op)
	s := t.e.SumFloat64(f)
	t.tr.end(id)
	return s
}

const inf32 = int32(1 << 30)

type bfsProps struct {
	Dis int32
}

func tracedBFS(tr *tracer, parent, op int, g *graph.Graph, root graph.VID, opts []flash.Option) ([]int32, error) {
	e, err := newTracedEngine[bfsProps](tr, parent, op, g, opts)
	if err != nil {
		return nil, err
	}
	out := make([]int32, g.NumVertices())
	err = e.run(func() error {
		e.vertexMap(e.e.All(), nil, func(v flash.Vertex[bfsProps]) bfsProps {
			if v.ID == root {
				return bfsProps{Dis: 0}
			}
			return bfsProps{Dis: inf32}
		})
		u := e.vertexMap(e.e.All(), func(v flash.Vertex[bfsProps]) bool { return v.ID == root }, nil)
		for u.Size() != 0 {
			u = e.edgeMap(u,
				nil,
				func(s, d flash.Vertex[bfsProps]) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} },
				func(d flash.Vertex[bfsProps]) bool { return d.Val.Dis == inf32 },
				func(t, cur bfsProps) bfsProps { return t })
		}
		e.gather(func(v graph.VID, val *bfsProps) {
			if val.Dis == inf32 {
				out[v] = -1
			} else {
				out[v] = val.Dis
			}
		})
		return nil
	})
	return out, err
}

type prProps struct {
	Rank float64
	Next float64
}

func tracedPageRank(tr *tracer, parent, op int, g *graph.Graph, maxIters int, eps float64, opts []flash.Option) ([]float64, error) {
	e, err := newTracedEngine[prProps](tr, parent, op, g, opts)
	if err != nil {
		return nil, err
	}
	n := float64(g.NumVertices())
	// A float64 variable, as in algo.PageRank: an untyped constant would make
	// 1-damping exact at compile time and the ranks differ in the last bit.
	damping := 0.85
	out := make([]float64, g.NumVertices())
	err = e.run(func() error {
		e.vertexMap(e.e.All(), nil, func(v flash.Vertex[prProps]) prProps {
			return prProps{Rank: 1 / n}
		})
		for it := 0; it < maxIters; it++ {
			dangling := e.sumFloat64(func(v graph.VID, val *prProps) float64 {
				if g.OutDegree(v) == 0 {
					return val.Rank
				}
				return 0
			})
			base := (1-damping)/n + damping*dangling/n
			e.vertexMap(e.e.All(), nil, func(v flash.Vertex[prProps]) prProps {
				return prProps{Rank: v.Val.Rank, Next: 0}
			})
			e.edgeMap(e.e.All(),
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
			delta := e.sumFloat64(func(_ graph.VID, val *prProps) float64 {
				return math.Abs(base + val.Next - val.Rank)
			})
			e.vertexMap(e.e.All(), nil, func(v flash.Vertex[prProps]) prProps {
				return prProps{Rank: base + v.Val.Next}
			})
			if delta < eps {
				break
			}
		}
		e.gather(func(v graph.VID, val *prProps) { out[v] = val.Rank })
		return nil
	})
	return out, err
}

type ccProps struct {
	CC uint32
}

func tracedCC(tr *tracer, parent, op int, g *graph.Graph, opts []flash.Option) ([]uint32, error) {
	e, err := newTracedEngine[ccProps](tr, parent, op, g, opts)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, g.NumVertices())
	err = e.run(func() error {
		u := e.vertexMap(e.e.All(), nil, func(v flash.Vertex[ccProps]) ccProps {
			return ccProps{CC: uint32(v.ID)}
		})
		for u.Size() != 0 {
			u = e.edgeMap(u,
				func(s, d flash.Vertex[ccProps]) bool { return s.Val.CC < d.Val.CC },
				func(s, d flash.Vertex[ccProps]) ccProps { return ccProps{CC: min(s.Val.CC, d.Val.CC)} },
				nil,
				func(t, cur ccProps) ccProps { return ccProps{CC: min(t.CC, cur.CC)} })
		}
		e.gather(func(v graph.VID, val *ccProps) { out[v] = val.CC })
		return nil
	})
	return out, err
}

type ssspProps struct {
	Dis float32
}

func tracedSSSP(tr *tracer, parent, op int, g *graph.Graph, root graph.VID, opts []flash.Option) ([]float32, error) {
	e, err := newTracedEngine[ssspProps](tr, parent, op, g, opts)
	if err != nil {
		return nil, err
	}
	out := make([]float32, g.NumVertices())
	err = e.run(func() error {
		winf := float32(math.Inf(1))
		e.vertexMap(e.e.All(), nil, func(v flash.Vertex[ssspProps]) ssspProps {
			if v.ID == root {
				return ssspProps{Dis: 0}
			}
			return ssspProps{Dis: winf}
		})
		u := e.e.FromIDs(root)
		for u.Size() != 0 {
			u = e.edgeMapW(u,
				func(s, d flash.Vertex[ssspProps], w float32) bool { return s.Val.Dis+w < d.Val.Dis },
				func(s, d flash.Vertex[ssspProps], w float32) ssspProps { return ssspProps{Dis: s.Val.Dis + w} },
				nil,
				func(t, cur ssspProps) ssspProps {
					if t.Dis < cur.Dis {
						return t
					}
					return cur
				})
		}
		e.gather(func(v graph.VID, val *ssspProps) { out[v] = val.Dis })
		return nil
	})
	return out, err
}
