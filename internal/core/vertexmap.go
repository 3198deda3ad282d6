package core

import (
	"time"

	"flash/metrics"
)

// StepOpts tune a single primitive invocation.
type StepOpts struct {
	// NoSync marks the step's updates as master-local (not critical per the
	// Table II analysis), skipping mirror synchronization.
	NoSync bool
	// Mode overrides the engine mode for this EdgeMap (Auto = inherit).
	Mode Mode
}

// VertexMap applies the map function M to every vertex of U passing F and
// returns the subset of vertices that passed F (§III-A). F and M receive a
// view of the vertex whose Val points at the master's current state; M may
// mutate through Val and must return the vertex's new value. A nil F is the
// paper's CTRUE; a nil M leaves values unchanged (filter semantics).
//
// Each VertexMap is one superstep: local computation followed by mirror
// synchronization of updated masters (unless opts.NoSync). The output is a
// subset of U, so a worker holding U as a list emits a list; with M non-nil
// the output is also exactly the set of updated masters.
//
//flash:hotpath
func (e *Engine[V]) VertexMap(U *Subset, F func(Vtx[V]) bool, M func(Vtx[V]) V, opts StepOpts) *Subset {
	e.checkSubset(U)
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(true, opts.NoSync || M == nil)
		return e.parallelWorkers(func(w *worker[V]) error {
			membership, o := &U.local[w.id], &out.local[w.id]
			o.shapeLike(membership)
			cstart := time.Now()
			w.forEachMember(membership, U.Size(), func(_, l int) {
				gid := w.st.GID(l)
				v := w.vtxAt(gid, &w.cur[l])
				if F != nil && !F(v) {
					return
				}
				if M != nil {
					w.cur[l] = M(v)
				}
				o.add(l)
			})
			w.rec.Durations[metrics.Compute] += time.Since(cstart)
			if scope != scopeNone {
				return w.syncMasters(o, scope)
			}
			return nil
		})
	})
}

// VertexMapC is VertexMap with context-passing callbacks that may read
// arbitrary vertices through c.Get (FLASHWARE's get; exact only under
// FullMirrors). Updates are buffered in next states and published after the
// local scan, so concurrent reads always observe the superstep's initial
// values.
//
//flash:hotpath
func (e *Engine[V]) VertexMapC(U *Subset, F func(c *Ctx[V], v Vtx[V]) bool, M func(c *Ctx[V], v Vtx[V]) V, opts StepOpts) *Subset {
	e.checkSubset(U)
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(true, opts.NoSync || M == nil)
		return e.parallelWorkers(func(w *worker[V]) error {
			membership, o := &U.local[w.id], &out.local[w.id]
			o.shapeLike(membership)
			// A callback may iterate an out-of-core edge set through its Ctx;
			// the cursors that leaves pinned are released however the step ends.
			defer w.flushBlockStats()
			cstart := time.Now()
			w.forEachMember(membership, U.Size(), func(t, l int) {
				c := &w.ctxs[t]
				gid := w.st.GID(l)
				v := w.vtxAt(gid, &w.cur[l])
				if F != nil && !F(c, v) {
					return
				}
				if M != nil {
					w.next[l] = M(c, v)
				}
				o.add(l)
			})
			if M != nil {
				w.publishNext(o)
			}
			w.rec.Durations[metrics.Compute] += time.Since(cstart)
			if scope != scopeNone {
				return w.syncMasters(o, scope)
			}
			return nil
		})
	})
}
