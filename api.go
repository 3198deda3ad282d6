package flash

import (
	"flash/graph"
	"flash/internal/core"
)

// StepOption tunes a single primitive call without disturbing the
// paper-shaped positional signature.
type StepOption func(*core.StepOpts)

// NoSync marks a step's updates as master-local: by the paper's Table II
// rule the step writes no critical property, so mirror synchronization is
// skipped.
func NoSync() StepOption { return func(o *core.StepOpts) { o.NoSync = true } }

// ForceMode overrides the propagation mode for one EdgeMap.
func ForceMode(m Mode) StepOption { return func(o *core.StepOpts) { o.Mode = m } }

func stepOpts(opts []StepOption) core.StepOpts {
	var o core.StepOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// ---- vertexSubset constructors and auxiliary set operators (§III-A) ----

// All returns the subset containing every vertex (the paper's V).
func (e *Engine[V]) All() *VertexSubset { return e.c.All() }

// None returns the empty subset.
func (e *Engine[V]) None() *VertexSubset { return e.c.Empty() }

// FromIDs builds a subset from explicit vertex ids.
func (e *Engine[V]) FromIDs(ids ...VID) *VertexSubset { return e.c.FromIDs(ids...) }

// Size returns |U| (the SIZE primitive; also available as U.Size()).
func (e *Engine[V]) Size(U *VertexSubset) int { return U.Size() }

// Union returns a ∪ b.
func (e *Engine[V]) Union(a, b *VertexSubset) *VertexSubset { return e.c.Union(a, b) }

// Minus returns a \ b.
func (e *Engine[V]) Minus(a, b *VertexSubset) *VertexSubset { return e.c.Minus(a, b) }

// Intersect returns a ∩ b (the paper's INTERSACT).
func (e *Engine[V]) Intersect(a, b *VertexSubset) *VertexSubset { return e.c.Intersect(a, b) }

// Contain reports membership of v in U (the paper's CONTAIN).
func (e *Engine[V]) Contain(U *VertexSubset, v VID) bool { return e.c.Contains(U, v) }

// Add inserts v into U.
func (e *Engine[V]) Add(U *VertexSubset, v VID) { e.c.Add(U, v) }

// IDs returns U's members in ascending order (result extraction).
func (e *Engine[V]) IDs(U *VertexSubset) []VID { return e.c.IDs(U) }

// ---- edge sets ----

// E returns the graph's own edge set: the in-memory CSR iterator, or the
// block-backed iterator when the engine borrows a block-graph handle
// (WithGraphHandle(NewBlockGraphHandle(bg))).
func (e *Engine[V]) E() EdgeSet[V] { return e.c.E() }

// Reverse returns the reversal of h (the paper's reverse(E)).
func Reverse[V any](h EdgeSet[V]) EdgeSet[V] { return core.ReverseE(h) }

// JoinEU restricts h to edges whose target is in U (the paper's join(E,U)).
func (e *Engine[V]) JoinEU(h EdgeSet[V], U *VertexSubset) EdgeSet[V] {
	return core.JoinEU(h, func(d graph.VID) bool { return e.c.Contains(U, d) })
}

// JoinEE composes two edge sets into two-hop edges (the paper's join(E,E)).
func JoinEE[V any](a, b EdgeSet[V]) EdgeSet[V] { return core.JoinEE(a, b) }

// OutEdges builds a virtual edge set from a per-source target function, e.g.
// the paper's join(U, p) with targets(u) = {u.p}. Push-mode only; requires
// WithFullMirrors.
func OutEdges[V any](targets func(c *Ctx[V], u VID) []VID) EdgeSet[V] {
	return core.OutFunc(targets)
}

// InEdges builds a virtual edge set from a per-target source function, e.g.
// the paper's join(p, U) with sources(v) = {v.p}. Pull-mode only; requires
// WithFullMirrors.
func InEdges[V any](sources func(c *Ctx[V], d VID) []VID) EdgeSet[V] {
	return core.InFunc(sources)
}

// ---- primitives ----

// VertexMap applies M to every vertex of U passing F and returns the subset
// of vertices passing F. A nil F is CTRUE; a nil M keeps values unchanged
// (filter semantics). One superstep.
func (e *Engine[V]) VertexMap(U *VertexSubset, F func(Vertex[V]) bool, M func(Vertex[V]) V, opts ...StepOption) *VertexSubset {
	return e.c.VertexMap(U, F, M, stepOpts(opts))
}

// EdgeMap applies M over the active edges {(s,d) ∈ H | s ∈ U ∧ C(d)} passing
// F and returns the subset of updated targets, choosing push or pull by the
// density rule. R must be associative and commutative; a nil R forces pull
// mode. Nil F and C mean CTRUE.
func (e *Engine[V]) EdgeMap(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V]) bool, M func(s, d Vertex[V]) V,
	C func(d Vertex[V]) bool, R func(t, cur V) V, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMap(U, H, core.Unweighted(F, M), C, R, stepOpts(opts))
}

// EdgeMapDense forces the pull kernel (paper Algorithm 5).
func (e *Engine[V]) EdgeMapDense(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V]) bool, M func(s, d Vertex[V]) V,
	C func(d Vertex[V]) bool, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMapDense(U, H, core.Unweighted(F, M), C, stepOpts(opts))
}

// EdgeMapSparse forces the push kernel (paper Algorithm 6).
func (e *Engine[V]) EdgeMapSparse(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V]) bool, M func(s, d Vertex[V]) V,
	C func(d Vertex[V]) bool, R func(t, cur V) V, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMapSparse(U, H, core.Unweighted(F, M), C, R, stepOpts(opts))
}

// EdgeMapW is EdgeMap with edge weights passed to F and M (weighted graphs;
// unweighted graphs pass 0).
func (e *Engine[V]) EdgeMapW(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V], w float32) bool, M func(s, d Vertex[V], w float32) V,
	C func(d Vertex[V]) bool, R func(t, cur V) V, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMap(U, H, core.Weighted(F, M), C, R, stepOpts(opts))
}

// EdgeMapDenseW is EdgeMapDense with edge weights.
func (e *Engine[V]) EdgeMapDenseW(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V], w float32) bool, M func(s, d Vertex[V], w float32) V,
	C func(d Vertex[V]) bool, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMapDense(U, H, core.Weighted(F, M), C, stepOpts(opts))
}

// EdgeMapSparseW is EdgeMapSparse with edge weights.
func (e *Engine[V]) EdgeMapSparseW(U *VertexSubset, H EdgeSet[V],
	F func(s, d Vertex[V], w float32) bool, M func(s, d Vertex[V], w float32) V,
	C func(d Vertex[V]) bool, R func(t, cur V) V, opts ...StepOption) *VertexSubset {
	return e.c.EdgeMapSparse(U, H, core.Weighted(F, M), C, R, stepOpts(opts))
}

// ---- driver-side state access and aggregation ----

// Get returns v's current state (driver-side, always exact).
func (e *Engine[V]) Get(v VID) V { return e.c.Get(v) }

// Set overwrites v's state on its master and mirrors (driver-side seeding).
func (e *Engine[V]) Set(v VID, val V) { e.c.Set(v, val) }

// Gather calls f for every vertex in ascending order with the master state.
func (e *Engine[V]) Gather(f func(v VID, val *V)) { e.c.Gather(f) }

// Fold reduces over all vertices' master states on the driver.
func Fold[V, T any](e *Engine[V], init T, f func(acc T, v VID, val *V) T) T {
	return core.Fold(e.c, init, f)
}

// SumInt64 adds an int64 projection over all vertices.
func (e *Engine[V]) SumInt64(f func(v VID, val *V) int64) int64 { return core.Sum(e.c, f) }

// SumFloat64 adds a float64 projection over all vertices in ascending order.
func (e *Engine[V]) SumFloat64(f func(v VID, val *V) float64) float64 { return core.Sum(e.c, f) }

// CountIf counts vertices whose state satisfies pred.
func (e *Engine[V]) CountIf(pred func(v VID, val *V) bool) int {
	return int(core.Sum(e.c, func(v VID, val *V) int64 {
		if pred(v, val) {
			return 1
		}
		return 0
	}))
}

// VertexMapC is VertexMap with context-passing callbacks that may read
// arbitrary vertices through c.Get (reliable under WithFullMirrors); the
// paper's CL uses it to intersect remote neighbor lists.
func (e *Engine[V]) VertexMapC(U *VertexSubset, F func(c *Ctx[V], v Vertex[V]) bool, M func(c *Ctx[V], v Vertex[V]) V, opts ...StepOption) *VertexSubset {
	return e.c.VertexMapC(U, F, M, stepOpts(opts))
}
