package core

import "flash/graph"

// EdgeSet is the paper's H parameter of EDGEMAP: the edge set to conduct
// updates over. Besides the graph's own edges it may be a derived set
// (reverse, target-filtered, two-hop) or an arbitrary *virtual* edge set
// computed from vertex properties at runtime, which is the paper's
// "communication beyond neighborhood" extension (§III-C).
type EdgeSet[V any] interface {
	// Out iterates the H-out-edges of u; yield returns false to stop.
	Out(c *Ctx[V], u graph.VID, yield func(d graph.VID, w float32) bool)
	// In iterates the H-in-edges of d. Only called when SupportsIn is true.
	In(c *Ctx[V], d graph.VID, yield func(s graph.VID, w float32) bool)
	// SupportsIn reports whether the pull kernel may be used.
	SupportsIn() bool
	// SupportsOut reports whether the push kernel may be used.
	SupportsOut() bool
	// Physical reports whether every edge of the set is an edge of G. Only
	// physical sets allow the necessary-mirrors optimization; virtual sets
	// force broadcast synchronization (§IV-C) and require FullMirrors.
	Physical() bool
	// OutDegreeHint estimates |Out(u)| for the density rule.
	OutDegreeHint(c *Ctx[V], u graph.VID) int
}

// baseEdges is E itself.
type baseEdges[V any] struct{}

// BaseE returns the edge set E of the engine's graph.
func BaseE[V any]() EdgeSet[V] { return baseEdges[V]{} }

func (baseEdges[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	adj := c.G.OutNeighbors(u)
	ws := c.G.OutWeights(u)
	for i, d := range adj {
		var w float32
		if ws != nil {
			w = ws[i]
		}
		if !yield(d, w) {
			return
		}
	}
}

func (baseEdges[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	adj := c.G.InNeighbors(d)
	ws := c.G.InWeights(d)
	for i, s := range adj {
		var w float32
		if ws != nil {
			w = ws[i]
		}
		if !yield(s, w) {
			return
		}
	}
}

func (baseEdges[V]) SupportsIn() bool  { return true }
func (baseEdges[V]) SupportsOut() bool { return true }
func (baseEdges[V]) Physical() bool    { return true }
func (baseEdges[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	return c.G.OutDegree(u)
}

// reverseEdges flips an inner set (paper's reverse(E)).
type reverseEdges[V any] struct{ inner EdgeSet[V] }

// ReverseE returns the reversal of h. Pull support requires h to support
// Out (always true) and push support requires h.In; both directions swap.
func ReverseE[V any](h EdgeSet[V]) EdgeSet[V] { return reverseEdges[V]{inner: h} }

func (r reverseEdges[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	r.inner.In(c, u, yield)
}

func (r reverseEdges[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	r.inner.Out(c, d, yield)
}

func (r reverseEdges[V]) SupportsIn() bool  { return r.inner.SupportsOut() }
func (r reverseEdges[V]) SupportsOut() bool { return r.inner.SupportsIn() }
func (r reverseEdges[V]) Physical() bool    { return r.inner.Physical() }
func (r reverseEdges[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	return c.G.InDegree(u)
}

// joinEU restricts an inner set to edges whose target lies in a subset
// (paper's join(E, U)).
type joinEU[V any] struct {
	inner  EdgeSet[V]
	member func(graph.VID) bool
}

// JoinEU returns h restricted to targets for which member returns true. The
// membership function must be safe for concurrent use and stable within a
// superstep.
func JoinEU[V any](h EdgeSet[V], member func(graph.VID) bool) EdgeSet[V] {
	return joinEU[V]{inner: h, member: member}
}

func (j joinEU[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	j.inner.Out(c, u, func(d graph.VID, w float32) bool {
		if !j.member(d) {
			return true
		}
		return yield(d, w)
	})
}

func (j joinEU[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	if !j.member(d) {
		return
	}
	j.inner.In(c, d, yield)
}

func (j joinEU[V]) SupportsIn() bool  { return j.inner.SupportsIn() }
func (j joinEU[V]) SupportsOut() bool { return j.inner.SupportsOut() }
func (j joinEU[V]) Physical() bool    { return j.inner.Physical() }
func (j joinEU[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	return j.inner.OutDegreeHint(c, u)
}

// joinEE composes two sets: u ->(a) x ->(b) d (paper's join(E, E), two-hop
// neighbors).
type joinEE[V any] struct{ a, b EdgeSet[V] }

// JoinEE returns the composition a∘b: an edge u->d exists when some x has
// u->x in a and x->d in b. Each distinct (u,d) pair is yielded exactly once
// regardless of how many witnesses x connect them — EDGEMAP's active edge
// set is a set, not a multiset.
func JoinEE[V any](a, b EdgeSet[V]) EdgeSet[V] { return joinEE[V]{a: a, b: b} }

func (j joinEE[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	seen := make(map[graph.VID]struct{})
	j.a.Out(c, u, func(x graph.VID, _ float32) bool {
		stop := false
		j.b.Out(c, x, func(d graph.VID, w float32) bool {
			if _, dup := seen[d]; dup {
				return true
			}
			seen[d] = struct{}{}
			if !yield(d, w) {
				stop = true
				return false
			}
			return true
		})
		return !stop
	})
}

func (j joinEE[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	seen := make(map[graph.VID]struct{})
	j.b.In(c, d, func(x graph.VID, _ float32) bool {
		stop := false
		j.a.In(c, x, func(s graph.VID, w float32) bool {
			if _, dup := seen[s]; dup {
				return true
			}
			seen[s] = struct{}{}
			if !yield(s, w) {
				stop = true
				return false
			}
			return true
		})
		return !stop
	})
}

func (j joinEE[V]) SupportsIn() bool  { return j.a.SupportsIn() && j.b.SupportsIn() }
func (j joinEE[V]) SupportsOut() bool { return j.a.SupportsOut() && j.b.SupportsOut() }

// Physical is false: two-hop pairs are generally not edges of G, so syncs
// must broadcast and reads may touch arbitrary vertices.
func (j joinEE[V]) Physical() bool { return false }

func (j joinEE[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	// Cheap upper estimate: deg(u) * avg degree.
	avg := 1
	if n := c.G.NumVertices(); n > 0 {
		avg = c.G.NumEdges()/n + 1
	}
	return j.a.OutDegreeHint(c, u) * avg
}

// outFunc is a virtual edge set defined by a per-source target list, e.g.
// the paper's join(U, p): edges from each u to u.p.
type outFunc[V any] struct {
	targets func(c *Ctx[V], u graph.VID) []graph.VID
	hint    int
}

// OutFunc builds a virtual edge set from a function mapping a source vertex
// to its targets (which may be computed from properties via c.Get). Pull
// mode is unavailable; the engine will run such maps in push mode.
func OutFunc[V any](targets func(c *Ctx[V], u graph.VID) []graph.VID) EdgeSet[V] {
	return outFunc[V]{targets: targets, hint: 1}
}

func (o outFunc[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	for _, d := range o.targets(c, u) {
		if !yield(d, 0) {
			return
		}
	}
}

func (o outFunc[V]) In(*Ctx[V], graph.VID, func(graph.VID, float32) bool) {
	panic("core: OutFunc edge set does not support pull mode")
}

func (o outFunc[V]) SupportsIn() bool                     { return false }
func (o outFunc[V]) SupportsOut() bool                    { return true }
func (o outFunc[V]) Physical() bool                       { return false }
func (o outFunc[V]) OutDegreeHint(*Ctx[V], graph.VID) int { return o.hint }

// inFunc is a virtual edge set defined by a per-target source list, e.g.
// the paper's join(p, U): an edge from v.p to each v.
type inFunc[V any] struct {
	sources func(c *Ctx[V], d graph.VID) []graph.VID
	hint    int
}

// InFunc builds a virtual edge set from a function mapping a target vertex
// to its sources. Push mode is unavailable; the engine will run such maps in
// pull mode.
func InFunc[V any](sources func(c *Ctx[V], d graph.VID) []graph.VID) EdgeSet[V] {
	return inFunc[V]{sources: sources, hint: 1}
}

func (i inFunc[V]) Out(*Ctx[V], graph.VID, func(graph.VID, float32) bool) {
	panic("core: InFunc edge set does not support push mode")
}

func (i inFunc[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	for _, s := range i.sources(c, d) {
		if !yield(s, 0) {
			return
		}
	}
}

func (i inFunc[V]) SupportsIn() bool                     { return true }
func (i inFunc[V]) SupportsOut() bool                    { return false }
func (i inFunc[V]) Physical() bool                       { return false }
func (i inFunc[V]) OutDegreeHint(*Ctx[V], graph.VID) int { return i.hint }

// rowSrc names where a kernel reads an edge set's rows from.
type rowSrc uint8

const (
	rowsCSR   rowSrc = iota // the in-memory CSR, E itself
	rowsBlock               // the thread's block cursor, E out-of-core
	rowsIter                // any other set: its iterator, into the thread's row buffer
)

// rowSource picks, once per step, where a kernel reads H's rows in direction
// dir (graph.BlockIn for pull, graph.BlockOut for push) from, and the
// direction to read them in: the reversal of E, in memory or out-of-core, is
// E's row in the other direction.
func rowSource[V any](H EdgeSet[V], dir int) (rowSrc, int) {
	switch h := H.(type) {
	case baseEdges[V]:
		return rowsCSR, dir
	case blockEdges[V]:
		return rowsBlock, dir
	case reverseEdges[V]:
		rev := graph.BlockIn
		if dir == graph.BlockIn {
			rev = graph.BlockOut
		}
		if src, d := rowSource(h.inner, rev); src != rowsIter {
			return src, d
		}
	}
	return rowsIter, dir
}

// rowOf returns v's row of H in direction dir, read from src (rowSource's
// pick for the step): a CSR row aliases the graph, a block row the thread's
// cursor block (row), and any other set's row is collected through its
// iterator into the thread's row buffer, valid until the next collection. A
// collection runs the iterator to the end of the row.
//
//flash:hotpath
func (c *Ctx[V]) rowOf(H EdgeSet[V], src rowSrc, dir int, v graph.VID) ([]graph.VID, []float32) {
	switch src {
	case rowsCSR:
		if dir == graph.BlockIn {
			return c.G.InNeighbors(v), c.G.InWeights(v)
		}
		return c.G.OutNeighbors(v), c.G.OutWeights(v)
	case rowsBlock:
		return c.row(dir, v)
	}
	c.rowAdj, c.rowW = c.rowAdj[:0], c.rowW[:0]
	if dir == graph.BlockIn {
		H.In(c, v, c.collect)
	} else {
		H.Out(c, v, c.collect)
	}
	return c.rowAdj, c.rowW
}

// appendEdge is the yield rowOf collects a derived set's row with (bound once
// per Ctx as collect).
func (c *Ctx[V]) appendEdge(d graph.VID, w float32) bool {
	c.rowAdj = append(c.rowAdj, d)
	c.rowW = append(c.rowW, w)
	return true
}
