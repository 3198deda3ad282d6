// Elastic worker membership: resize is restore at a different width.
//
// Resize(n) changes the worker count of a live engine at a superstep barrier
// in three steps, and keeps the run byte-identical to one that used the
// final membership from the start:
//
//  1. Image. The ordinary checkpoint image of this barrier is taken (and,
//     with checkpointing on, saved to the store like any other).
//  2. Swap. The transport is resized once and the new placement, partition
//     and zeroed workers are installed under a fresh subset epoch.
//  3. Restore. The image is restored into the new membership by the same
//     function rollback and cold restart use: an image says how wide it was
//     taken, so its masters are re-homed through the new placement and one
//     sync round rebuilds the mirrors (see restoreImage).
//
// There is nothing to roll back. Until the swap the engine is untouched;
// after it, a fault is a failed round with an image in hand, which is what
// recoverStep exists for: cold-restart the victim if one was lost, reset the
// transport, restore the stored image — into the *new* membership — and
// carry on. Without checkpointing a failed resize marks the engine failed,
// like any other failed superstep.
package core

import (
	"fmt"
	"time"

	"flash/internal/bitset"
	"flash/internal/comm"
	"flash/internal/partition"
)

// Resize changes the engine's worker count to n at the current superstep
// barrier. The transport must implement comm.Resizer. With checkpointing
// enabled the resize is crash-safe: a failure after the membership swap
// (including a permanent worker kill) is recovered into the new membership
// from the stored image under the shared MaxRecoveries budget.
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
	rz, ok := e.tr.(comm.Resizer)
	if !ok {
		// Terminal, not recoverable: retrying cannot make the transport grow
		// the capability.
		e.failed = fmt.Errorf("core: transport %T does not support membership resize", e.tr)
		return e.failed
	}
	start := time.Now()
	img := e.encodeImage()
	if e.cfg.CheckpointEvery > 0 {
		if err := e.saveCheckpoint(img); err != nil {
			e.failed = err
			return err
		}
	}

	e.stopHeartbeaters()
	if err := rz.Resize(n); err != nil {
		// A transport that failed to reconfigure is in no membership at all.
		e.failed = fmt.Errorf("core: resize to %d workers failed: %w", n, err)
		return e.failed
	}
	stopPools(e.workers)
	place := newPlacement(e.cfg.UseHashPlacement, e.g.NumVertices(), n)
	// Built privately (Shell + Rebuild, the cold-restart path), so a
	// previously catalog-shared engine owns its partition from here on.
	part := partition.Shell(e.topo(), place)
	for w := 0; w < n; w++ {
		part.Rebuild(w)
	}
	e.cfg.Workers = n
	e.part, e.partShared = part, false
	// The history only grows, so any live subset's stamp stays resolvable.
	e.placeHist = append(e.placeHist, place)
	e.memberEpoch = len(e.placeHist) - 1
	e.place = place
	e.workers = make([]*worker[V], n)
	for w := range e.workers {
		e.workers[w] = e.newWorker(w)
	}
	e.startHeartbeaters()

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
