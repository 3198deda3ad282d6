// Superstep checkpoint/recovery (fault tolerance).
//
// Following Distributed GraphLab's observation that BSP engines get cheap
// fault tolerance from snapshotting at superstep boundaries, the engine
// snapshots every worker's state at the barrier — where it is consistent by
// BSP construction — every CheckpointEvery successful supersteps. The
// snapshot is encoded into a CheckpointImage and handed to the configured
// CheckpointStore (in-memory by default, file-backed for durability), so the
// bytes that survive are independent of any worker's live state. When a
// superstep fails — transport error, broken link, stalled peer, injected
// crash, or a worker lost for good (comm.KillError; its peers see only a
// stalled round) — recovery is one sequence, the one a resize runs at
// another width: swap in a fresh incarnation of every worker at the current
// width (swapMembership), restore the stored image into it, replay the supersteps
// since then (FLASH steps are deterministic functions of engine state, so
// replay reproduces the exact pre-failure state and the exact subsets the
// driver already holds), and re-execute the failed superstep. Scripted faults
// are one-shot, and real-world transients are by definition unlikely to
// repeat, so replay normally succeeds; a recovery budget stops a persistent
// fault from looping forever.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"flash/graph"
	"flash/internal/comm"
	"flash/metrics"
)

// replayStep re-executes one superstep for its state effects, writing the
// output subset into a throwaway.
type replayStep[V any] func(out *Subset) error

// runtimeFailure carries an unrecovered superstep error up to Run through
// the paper-shaped, error-free primitive signatures.
type runtimeFailure struct{ err error }

func (r runtimeFailure) Error() string { return r.err.Error() }

// RunResult summarizes a completed (or failed) run: the collector's counters,
// cumulative for the engine.
type RunResult = metrics.Counters

// Run executes a FLASH driver program with the engine's fault-tolerance
// machinery engaged: a superstep that fails beyond what checkpoint recovery
// can absorb surfaces here as an error instead of a panic, with every worker
// goroutine already joined and the transport aborted cleanly. Structural
// misuse of the primitives (wrong engine's subset, nil reduce in push mode,
// ...) still panics: those are programming errors, not runtime conditions.
func (e *Engine[V]) Run(program func() error) (res RunResult, err error) {
	if e.failed != nil {
		return e.runResult(), e.failed
	}
	if err := e.beginOp(); err != nil {
		return e.runResult(), err
	}
	defer e.endOp()
	defer func() {
		res = e.runResult()
		if r := recover(); r != nil {
			rf, ok := r.(runtimeFailure)
			if !ok {
				panic(r)
			}
			err = rf.err
		}
	}()
	err = program()
	return
}

// runResult snapshots the run counters from the collector.
func (e *Engine[V]) runResult() RunResult { return e.met.Counters }

// Err returns the first unrecovered superstep failure, or nil.
func (e *Engine[V]) Err() error { return e.failed }

// execStep runs one superstep with failure handling. exec must be a
// deterministic function of engine state that fills out and performs this
// worker-parallel superstep's exchange rounds. On failure the engine swaps in
// a fresh incarnation, restores the last checkpoint, replays the logged
// supersteps and re-executes exec, up to the recovery budget; an unrecovered
// error marks the engine failed and unwinds to Run.
//
//flash:amortized once per superstep, not per element
func (e *Engine[V]) execStep(frontier int, exec replayStep[V]) *Subset {
	if e.resident >= 0 {
		return e.execStepCluster(frontier, exec)
	}
	if e.failed != nil {
		panic(runtimeFailure{fmt.Errorf("core: engine already failed: %w", e.failed)})
	}
	if e.isClosed() {
		// Covers programs whose steps never touch the transport (NoSync-only):
		// the Close-side abort broadcast cannot reach them, so the barrier
		// checks the flag directly.
		e.failed = ErrEngineClosed
		panic(runtimeFailure{ErrEngineClosed})
	}
	ckptOn := e.cfg.CheckpointEvery > 0
	if ckptOn && !e.hasCkpt {
		// The initial checkpoint, taken lazily so driver-side seeding
		// (Engine.Set) before the first superstep is captured.
		if err := e.takeCheckpoint(); err != nil {
			e.failed = err
			panic(runtimeFailure{err})
		}
	}
	e.met.Step(frontier)
	out := e.newSubset()
	if err := exec(out); err != nil {
		if out, err = e.recoverStep(err, exec); err != nil {
			e.failed = err
			panic(runtimeFailure{err})
		}
	}
	out.recount()
	if ckptOn {
		e.replayLog = append(e.replayLog, exec)
		e.stepsSince++
		if e.stepsSince >= e.cfg.CheckpointEvery {
			if err := e.takeCheckpoint(); err != nil {
				e.failed = err
				panic(runtimeFailure{err})
			}
		}
	}
	// The resize policy runs after the step has fully committed (output
	// recounted, checkpoint taken): a membership change here is a pure
	// barrier event, and the subsets the driver holds remap lazily on next
	// use.
	if pol := e.cfg.ResizePolicy; pol != nil {
		want := pol(StepInfo{
			Superstep: e.met.Supersteps,
			Frontier:  out.Size(),
			Workers:   e.cfg.Workers,
			Vertices:  e.g.NumVertices(),
		})
		if want > 0 && want != e.cfg.Workers {
			if err := e.Resize(want); err != nil {
				e.failed = err
				panic(runtimeFailure{err})
			}
		}
	}
	return out
}

// recoverStep absorbs a failed round whose cause is err. While the failure is
// recoverable it starts a fresh incarnation at the current width, restores the
// stored checkpoint into it, replays the logged supersteps for their state
// effects and re-executes exec, whose output subset it returns. A transient
// fault and a lost worker take the same path; the loss only counts as a
// restart, and the recovery budget stops a worker that keeps dying. The
// error that exhausts the budget (or was never recoverable) comes back
// unchanged. Resize shares it with execStep: a fault after a membership swap
// is a failed round like any other.
func (e *Engine[V]) recoverStep(err error, exec replayStep[V]) (*Subset, error) {
	for e.canRecover(err) {
		e.recoveries++
		e.met.AddRecoveries(1)
		start := time.Now()
		// A lost worker's own goroutine returns its KillError, which
		// parallelWorkers reports as the root cause; peers only saw a stall.
		var ke *comm.KillError
		if errors.As(err, &ke) {
			e.met.AddRestarts(1)
		}
		out := e.newSubset()
		if err = e.swapMembership(e.cfg.Workers); err == nil {
			err = e.restoreCheckpoint()
		}
		for i := 0; err == nil && i < len(e.replayLog); i++ {
			err = e.replayLog[i](e.newSubset())
		}
		if err == nil {
			err = exec(out)
		}
		spent := time.Since(start)
		e.met.Add(metrics.Other, spent)
		e.met.AddRecoveryTime(spent)
		if err == nil {
			return out, nil
		}
	}
	return nil, err
}

// canRecover reports whether err is worth a rollback: checkpointing must be
// on with a stored snapshot in hand, the recovery budget must not be
// exhausted, and the failure must not be a worker panic (deterministic: it
// would fire again on replay).
func (e *Engine[V]) canRecover(err error) bool {
	var wp *workerPanic
	if errors.As(err, &wp) {
		return false
	}
	if errors.Is(err, ErrEngineClosed) {
		// The user tore the engine down; replaying the run would fight Close.
		return false
	}
	if e.resident >= 0 {
		// Cluster mode: recovery is the coordinator's restart-all under a
		// fresh epoch, never an in-process rollback (peer state is remote).
		return false
	}
	return e.cfg.CheckpointEvery > 0 && e.hasCkpt && e.recoveries < e.cfg.MaxRecoveries
}

// Worker checkpoint section format (inside a CheckpointImage section):
//
//	slots    uvarint
//	cur      slots × codec-encoded value
//	fwords   uvarint
//	frontier fwords × u64 little-endian
//
// Masters sit at slots [0, LocalCount) in local-index order and mirrors
// follow, so an image can be read without the partition it was taken under:
// its section count is its width, and placement is a pure function of
// (|V|, width, flavor). The counts are validated on restore, so an image
// taken over a different graph is rejected instead of silently misapplied.

// encodeWorkerSection serializes worker w's checkpointable state.
func (e *Engine[V]) encodeWorkerSection(w *worker[V]) []byte {
	fwords := w.frontier.Words()
	buf := make([]byte, 0, len(w.cur)*8+len(fwords)*8+16)
	buf = binary.AppendUvarint(buf, uint64(len(w.cur)))
	for i := range w.cur {
		buf = e.codec.Append(buf, &w.cur[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(fwords)))
	for _, word := range fwords {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// walkSection parses worker wid's encoded section: the slot count must lie in
// [minSlots, maxSlots], slot(i, src) decodes slot i from the head of src and
// reports its encoded size, and the frontier tail must hold exactly fwords
// words, which are returned still encoded.
func (e *Engine[V]) walkSection(wid int, sect []byte, minSlots, maxSlots, fwords int, slot func(i int, src []byte) (int, error)) ([]byte, error) {
	slots, off := binary.Uvarint(sect)
	if off <= 0 || slots < uint64(minSlots) || slots > uint64(maxSlots) {
		return nil, fmt.Errorf("core: checkpoint section for worker %d has %d slots, want %d..%d",
			wid, slots, minSlots, maxSlots)
	}
	for i := 0; i < int(slots); i++ {
		n, err := slot(i, sect[off:])
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint section for worker %d: slot %d: %w", wid, i, err)
		}
		off += n
	}
	got, k := binary.Uvarint(sect[off:])
	if k <= 0 {
		return nil, fmt.Errorf("core: checkpoint section for worker %d: frontier length missing", wid)
	}
	off += k
	if got != uint64(fwords) || len(sect[off:]) != 8*fwords {
		return nil, fmt.Errorf("core: checkpoint section for worker %d has %d frontier words, want %d",
			wid, got, fwords)
	}
	return sect[off:], nil
}

// decodeWorkerSection rehydrates worker w from a section encoded by a worker
// of the same membership: every slot and the frontier, with the counts
// validated before live state is touched.
func (e *Engine[V]) decodeWorkerSection(w *worker[V], sect []byte) error {
	words := w.frontier.Words()
	tail, err := e.walkSection(w.id, sect, len(w.cur), len(w.cur), len(words),
		func(i int, src []byte) (int, error) { return e.codec.Decode(src, &w.cur[i]) })
	if err != nil {
		return err
	}
	scratch := make([]uint64, len(words))
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint64(tail[8*i:])
	}
	w.frontier.SetWords(scratch)
	return nil
}

// decodeMasters reads an image taken at another worker count into one value
// per vertex, indexed by gid: section p's first LocalCount(p) slots are the
// masters the image's own placement assigned to p. Mirror slots are decoded
// only to find the section's end (they are derivable), and the frontier is
// per-superstep scratch that EdgeMap rebuilds. The whole image is validated
// before anything is returned, so a bad one touches no live worker state.
// The second result is the encoded size of the master values.
func (e *Engine[V]) decodeMasters(img *CheckpointImage) ([]V, uint64, error) {
	n, width := e.g.NumVertices(), len(img.Sections)
	if width == 0 {
		return nil, 0, fmt.Errorf("core: checkpoint image has no sections")
	}
	old := newPlacement(e.cfg.UseHashPlacement, n, width)
	fwords := len(e.workers[0].frontier.Words())
	masters := make([]V, n)
	var mirror V
	var rehomed uint64
	for p, sect := range img.Sections {
		owned := old.LocalCount(p)
		_, err := e.walkSection(p, sect, owned, n, fwords, func(i int, src []byte) (int, error) {
			if i >= owned {
				return e.codec.Decode(src, &mirror)
			}
			k, err := e.codec.Decode(src, &masters[old.GlobalID(p, i)])
			rehomed += uint64(k)
			return k, err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("core: image of width %d: %w", width, err)
		}
	}
	return masters, rehomed, nil
}

// encodeImage snapshots every worker's cur array and frontier bitmap.
func (e *Engine[V]) encodeImage() *CheckpointImage {
	img := &CheckpointImage{Sections: make([][]byte, len(e.workers))}
	for i, w := range e.workers {
		img.Sections[i] = e.encodeWorkerSection(w)
	}
	return img
}

// takeCheckpoint snapshots the engine into the store.
func (e *Engine[V]) takeCheckpoint() error { return e.saveCheckpoint(e.encodeImage()) }

// saveCheckpoint stamps img with the next sequence number, saves it to the
// store, and truncates the replay log: everything before the snapshot can
// never be replayed again.
func (e *Engine[V]) saveCheckpoint(img *CheckpointImage) error {
	e.ckptSeq++
	img.Seq = e.ckptSeq
	var total uint64
	for _, sect := range img.Sections {
		total += uint64(len(sect))
	}
	if err := e.store.Save(img); err != nil {
		return fmt.Errorf("core: checkpoint %d: %w", e.ckptSeq, err)
	}
	e.hasCkpt = true
	e.replayLog = e.replayLog[:0]
	e.stepsSince = 0
	e.met.AddCheckpoints(1)
	e.met.AddCheckpointBytes(total)
	return nil
}

// restoreCheckpoint loads the stored image and restores it into the current
// membership. The store itself already rejects torn or bit-flipped files.
func (e *Engine[V]) restoreCheckpoint() error {
	img, err := e.store.Load()
	if err != nil {
		return fmt.Errorf("core: checkpoint restore: %w", err)
	}
	if img == nil {
		return fmt.Errorf("core: checkpoint restore: store has no image")
	}
	return e.restoreImage(img)
}

// restoreImage rehydrates the workers of a fresh incarnation (swapMembership:
// zeroed state, empty per-superstep scratch) from img. An image as wide as
// the current membership is decoded section by section (all-or-nothing per
// worker: a mismatched or corrupt section fails before live state for later
// workers is touched). An image taken at any other width — which is all a
// resize is — has its masters re-homed through the current placement and the
// mirrors rebuilt by one sync round.
func (e *Engine[V]) restoreImage(img *CheckpointImage) error {
	if len(img.Sections) == len(e.workers) {
		for i, w := range e.workers {
			if err := e.decodeWorkerSection(w, img.Sections[i]); err != nil {
				return err
			}
		}
		return nil
	}
	masters, rehomed, err := e.decodeMasters(img)
	if err != nil {
		return err
	}
	for i := range masters {
		gid := graph.VID(i)
		e.workers[e.place.Owner(gid)].cur[e.place.LocalIndex(gid)] = masters[i]
	}
	e.met.AddMigratedBytes(rehomed)
	return e.resyncMirrors()
}
