// Elastic worker membership: resize is restore at a different width.
//
// Resize(n) changes the worker count of a live engine at a superstep barrier
// in three steps, and keeps the run byte-identical to one that used the
// final membership from the start:
//
//  1. Image. The ordinary checkpoint image of this barrier is taken (and,
//     with checkpointing on, saved to the store like any other).
//  2. Swap. swapMembership starts a fresh incarnation at n workers: the
//     transport is resized once and the new placement, partition and zeroed
//     workers are installed under a fresh subset epoch.
//  3. Restore. The image is restored into the new membership by the same
//     function recovery uses: an image says how wide it was taken, so its
//     masters are re-homed through the new placement and one sync round
//     rebuilds the mirrors (see restoreImage).
//
// There is nothing to roll back. Until the swap the engine is untouched;
// after it, a fault is a failed round with an image in hand, which is what
// recoverStep exists for: swap again at the width the engine now has, restore
// the stored image — into the *new* membership — and carry on. Recovery from
// any other failed round is the same two steps at an unchanged width. Without
// checkpointing a failed resize marks the engine failed, like any other
// failed superstep.
package core

import (
	"fmt"
	"time"

	"flash/internal/bitset"
	"flash/internal/partition"
)

// Resize changes the engine's worker count to n at the current superstep
// barrier. With checkpointing enabled the resize is crash-safe: a failure
// after the membership swap (including a permanent worker kill) is recovered
// into the new membership from the stored image under the shared
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
	if n == e.cfg.Workers {
		return nil
	}
	start := time.Now()
	img := e.encodeImage()
	if e.cfg.CheckpointEvery > 0 {
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
	err := e.restoreImage(img)
	if err != nil {
		_, err = e.recoverStep(err, func(*Subset) error { return nil })
	}
	if err != nil {
		e.failed = fmt.Errorf("core: resize to %d workers failed: %w", n, err)
		return e.failed
	}
	e.met.AddResizes(1)
	e.met.AddResizeTime(time.Since(start))
	return nil
}

// swapMembership starts a fresh incarnation of the engine at n workers: the
// one way worker state is ever replaced, shared by Resize (n is the new
// width) and recoverStep (n is the current one). The transport opens a new
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
	stopPools(e.workers)
	if n != e.cfg.Workers {
		e.cfg.Workers = n
		e.place = newPlacement(e.cfg.UseHashPlacement, e.g.NumVertices(), n)
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
		all := bitset.New(e.place.LocalCount(w.id))
		all.Fill()
		return w.syncMasters(all, scope)
	})
}

// newPlacement builds the hash (modulo) or contiguous-range placement of
// vertices vertices over workers workers.
func newPlacement(hash bool, vertices, workers int) partition.Placement {
	if hash {
		return partition.NewHash(vertices, workers)
	}
	return partition.NewRange(vertices, workers)
}

// stopPools joins and clears the parfor pools of ws. A stopped pool must
// never be reused (parforT would send on a closed channel), so the field is
// nilled.
func stopPools[V any](ws []*worker[V]) {
	for _, w := range ws {
		if w.pool != nil {
			w.pool.stop()
			w.pool = nil
		}
	}
}
