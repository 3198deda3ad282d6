// Elastic worker membership: resize is restore at a different width.
//
// Resize(n) changes the worker count at a superstep barrier and keeps the
// run byte-identical to one that used the final membership from the start:
// it takes the barrier's ordinary checkpoint image (saved like any other
// inside a checkpointed Run), swapMembership starts a fresh incarnation at n
// workers, and restoreImage re-homes the image's masters through the new
// placement and rebuilds the mirrors in one sync round. There is nothing to
// roll back: after the swap a fault is a failed round at the new width, which
// Run recovers from this barrier's image like any other — the re-run pops up
// to the resize and finds the width already changed. Outside a checkpointed
// Run a failed resize marks the engine failed.
package core

import (
	"fmt"
	"time"

	"flash/graph"
	"flash/internal/partition"
	"flash/metrics"
)

// Resize changes the engine's worker count to n at the current superstep
// barrier. Inside a checkpointed Run the resize is crash-safe: a failure
// after the membership swap (including a permanent worker kill) is recovered
// by Run into the new membership from the barrier's image under the shared
// MaxRecoveries budget.
func (e *Engine[V]) Resize(n int) error {
	if err := e.beginOp(); err != nil {
		return err
	}
	defer e.endOp()
	if e.failed != nil {
		return e.failed
	}
	if n < 1 {
		return &ConfigError{"Workers", fmt.Sprintf("must be >= 1, got %d (Resize)", n)}
	}
	if e.resident >= 0 {
		// Cluster membership is the coordinator's to change: it respawns the
		// fleet under a fresh epoch instead of resizing in place.
		return &ConfigError{"Workers", "resize unsupported in cluster mode"}
	}
	if n == e.cfg.Workers || e.fastForward() {
		return nil // during fast-forward the restored image is already at the new width
	}
	start := time.Now()
	img := e.encodeImage()
	if e.logging() {
		if err := e.saveCheckpoint(img); err != nil {
			e.failed = err
			return err
		}
	}
	if err := e.swapMembership(n); err != nil {
		// A transport that failed to reconfigure is in no membership at all.
		e.failed = fmt.Errorf("core: resize to %d workers failed: %w", n, err)
		return e.failed
	}
	// Counted once the swap is done, restored or not: a re-run after a
	// failed restore does not resize again.
	err := e.restoreImage(img)
	e.met.Fold(&metrics.Record{Counters: metrics.Counters{Resizes: 1, ResizeTime: time.Since(start)}})
	if err != nil {
		err = fmt.Errorf("core: resize to %d workers failed: %w", n, err)
		if e.running {
			e.fail(err) // Run recovers at the new width from this barrier's image
		}
		e.failed = err
		return err
	}
	return nil
}

// swapMembership starts a fresh incarnation of the engine at n workers: the
// one way worker state is ever replaced, shared by Resize (n is the new
// width) and recoverFrom (n is the current one). The transport opens a new
// epoch — clearing abort poison, stale frames and any dead endpoint — and
// every worker comes back zeroed, to be filled by restoreImage. Placement and
// partition are pure functions of (graph, n), so they change only when n does:
// at an unchanged width the current partition, possibly borrowed from a
// SharedGraph, is reused untouched and subsets keep their epoch. No worker may
// be inside a transport call.
func (e *Engine[V]) swapMembership(n int) error {
	if err := e.tr.Resize(n); err != nil {
		return err
	}
	retireWorkers(e.workers)
	if n != e.cfg.Workers {
		e.cfg.Workers = n
		e.place = newPlacement(e.cfg.UseHashPlacement, e.g, n)
		// Built privately: the catalog's partition cache is keyed by the widths
		// engines were created at, not the ones they pass through.
		e.part = partition.New(e.topo(), e.place)
		// The history only grows, so any live subset's stamp stays resolvable.
		e.placeHist = append(e.placeHist, e.place)
		e.memberEpoch = len(e.placeHist) - 1
	}
	e.workers = make([]*worker[V], n)
	for w := range e.workers {
		e.workers[w] = e.newWorker(w)
	}
	return nil
}

// resyncMirrors rebuilds every mirror by syncing all masters in one round.
// Mirror slots are the only state a cross-width restore does not carry (they
// are derivable), so this single exchange completes the workers' views.
func (e *Engine[V]) resyncMirrors() error {
	scope := e.scopeFor(true, false)
	return e.parallelWorkers(func(w *worker[V]) error {
		all := members{n: e.place.LocalCount(w.id)}
		all.bitmap().Fill()
		return w.syncMasters(&all, scope)
	})
}

// newPlacement builds the hash (modulo) placement of g's vertices over
// workers workers, or the contiguous ranges cut on in-edges (NewEdgeRange).
// g may be a block graph's skeleton: the cut reads only degrees.
func newPlacement(hash bool, g *graph.Graph, workers int) partition.Placement {
	if hash {
		return partition.NewHash(g.NumVertices(), workers)
	}
	return partition.NewEdgeRange(g, workers)
}

// retireWorkers joins and clears the parfor pools of ws and closes their
// block caches, whose arenas the next caches over the same block graph reuse.
// A stopped pool must never be reused (parforT would send on a closed
// channel), so the field is nilled.
func retireWorkers[V any](ws []*worker[V]) {
	for _, w := range ws {
		if w.pool != nil {
			w.pool.stop()
			w.pool = nil
		}
		if w.bcache != nil {
			w.bcache.Close()
		}
	}
}
