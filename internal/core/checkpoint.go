// Superstep checkpoint/recovery (fault tolerance).
//
// FLASHWARE's supersteps end at a BSP barrier, so a barrier snapshot plus a
// record of what the driver saw is enough to resume a run. Inside a
// checkpointed Run the engine snapshots every worker at Run entry and every
// CheckpointEvery supersteps, and logs the Run's outcomes: each superstep's
// output subset, each Gather's values, each Sum's result, each Get's value.
// A failed superstep — whatever the cause, a worker lost for good included —
// is recovered one way: swap in a fresh incarnation at the current width,
// restore the stored image and call the program again, which pops the logged
// outcomes (its writes do nothing: the image holds them) and runs live once
// they run out. A resumed cluster process pops its durable log the same way
// (cluster.go). The recovery budget stops a persistent fault from looping.
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

// runtimeFailure carries a superstep error up to Run through the
// paper-shaped, error-free primitive signatures.
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
// Recovery calls program again from the start, so program must get
// everything it knows from engine outcomes.
func (e *Engine[V]) Run(program func() error) (RunResult, error) {
	if e.failed != nil {
		return e.runResult(), e.failed
	}
	if err := e.beginOp(); err != nil {
		return e.runResult(), err
	}
	defer e.endOp()
	e.running = true
	defer func() {
		e.running = false
		if e.resident < 0 { // the in-process log lives for one Run
			e.log, e.logPos, e.logHigh, e.imgRecs = nil, 0, 0, 0
		}
	}()
	// In-process the entry image is taken now, so a failure never restores
	// another Run's state; a cluster process keeps the log its resume armed
	// and takes a first image only if it has none.
	if e.logging() && (e.resident < 0 || e.ckptSeq == 0) {
		if err := e.saveCheckpoint(e.encodeImage()); err != nil {
			e.failed = err
			return e.runResult(), err
		}
	}
	err, failure := e.runOnce(program)
	for failure != nil {
		if !e.canRecover(failure) {
			if e.failed == nil {
				e.failed = failure
			}
			return e.runResult(), failure
		}
		if failure = e.recoverFrom(failure); failure == nil {
			e.log, e.logPos, e.stepsSince = e.log[:e.imgRecs], 0, 0
			err, failure = e.runOnce(program)
		}
	}
	return e.runResult(), err
}

// runOnce calls program, turning a superstep failure's unwind into failure.
func (e *Engine[V]) runOnce(program func() error) (err, failure error) {
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(runtimeFailure)
			if !ok {
				panic(r)
			}
			failure = rf.err
		}
	}()
	return program(), nil
}

// logging reports whether outcomes are logged and images taken: whenever
// recovery is possible (inside a checkpointed Run, or with a WorkerStore).
func (e *Engine[V]) logging() bool {
	return e.cstore != nil || e.resident < 0 && e.running && e.cfg.CheckpointEvery > 0
}

// fastForward reports whether the log still holds outcomes ahead of the
// driver, whose writes the restored image then already holds.
func (e *Engine[V]) fastForward() bool { return e.logPos < len(e.log) }

// popOutcome moves the driver to its next record position and returns the
// record logged there, if the log still holds one.
func (e *Engine[V]) popOutcome(kind byte) (logRecord, bool) {
	pos := e.logPos
	e.logPos++
	if pos >= len(e.log) {
		return logRecord{}, false
	}
	if e.log[pos].kind != kind {
		e.abort(fmt.Errorf("core: outcome log diverged: record %d is kind %d, want %d", pos, e.log[pos].kind, kind))
	}
	return e.log[pos], true
}

// valueOutcome is one Gather (n values) or Get (one value): f sees each
// value in order, popped from the log if it holds the outcome, else read
// through live and logged when the engine logs (into a record sized once
// under a FixedCodec).
func (e *Engine[V]) valueOutcome(kind byte, n int, live func(i int) *V, f func(i int, val *V)) {
	rec, popped := e.popOutcome(kind)
	logging := !popped && e.logging()
	var buf []byte
	if wire, ok := comm.FixedSize(e.codec); logging && ok {
		buf = make([]byte, 0, n*wire)
	}
	var got V
	off := 0
	for i := 0; i < n; i++ {
		val := &got
		if !popped {
			val = live(i)
		} else if k, err := e.codec.Decode(rec.payload[off:], val); err != nil {
			e.abort(fmt.Errorf("core: outcome record, value %d: %w", i, err))
		} else {
			off += k
		}
		if logging {
			buf = e.codec.Append(buf, val)
		}
		f(i, val)
	}
	if popped && off != len(rec.payload) {
		e.abort(fmt.Errorf("core: outcome record has %d trailing bytes", len(rec.payload)-off))
	}
	if logging {
		e.logOutcome(kind, buf)
	}
}

// logOutcome appends a live outcome: to the WorkerStore in cluster mode, to
// the in-memory log with the current membership epoch in-process.
func (e *Engine[V]) logOutcome(kind byte, payload []byte) {
	if e.cstore == nil {
		e.log = append(e.log, logRecord{clusterLogRecord{kind, payload}, e.memberEpoch})
	} else if err := e.cstore.appendRecord(kind, payload); err != nil {
		e.abort(err)
	}
}

// fail unwinds a failed superstep to Run, which decides whether to recover;
// outside Run nothing can, so the engine is marked failed.
func (e *Engine[V]) fail(err error) {
	if !e.running {
		e.failed = err
	}
	panic(runtimeFailure{err})
}

// abort is fail for a failure no re-run can undo — a store that will not
// save, an outcome log that does not fit the program: the engine is failed.
func (e *Engine[V]) abort(err error) {
	e.failed = err
	panic(runtimeFailure{err})
}

// runResult snapshots the run counters from the collector.
func (e *Engine[V]) runResult() RunResult { return e.met.Counters }

// Err returns the first unrecovered superstep failure, or nil.
func (e *Engine[V]) Err() error { return e.failed }

// execStep runs one superstep at the driver's next record position: it pops
// the logged output subset if one remains, otherwise runs exec (which fills
// out and performs the exchange rounds; a cluster process then replicates
// out with a control round), logs the outcome, and runs the checkpoint
// cadence and the ResizePolicy hook. The step counters and the hook run only
// the first time the Run reaches the position, so a recovered run counts what
// a fault-free one does. A failure unwinds to Run.
//
//flash:amortized once per superstep, not per element
func (e *Engine[V]) execStep(frontier int, exec func(out *Subset) error) *Subset {
	if e.failed != nil {
		panic(runtimeFailure{fmt.Errorf("core: engine already failed: %w", e.failed)})
	}
	if e.isClosed() {
		// Covers programs whose steps never touch the transport (NoSync-only):
		// the Close-side abort broadcast cannot reach them, so the barrier
		// checks the flag directly.
		e.fail(ErrEngineClosed)
	}
	fresh := e.logPos >= e.logHigh
	if fresh {
		e.logHigh = e.logPos + 1
		e.met.Step(frontier)
	}
	if rec, ok := e.popOutcome(logKindStep); ok {
		// A record made before a resize decodes as a stale subset, which
		// checkSubset remaps on first use.
		out := e.subsetAt(rec.epoch)
		if err := e.decodeStepRecord(rec.payload, out); err != nil {
			e.abort(err)
		}
		out.recount()
		e.debugCheckBoundary(out)
		return out
	}
	out := e.newSubset()
	err := exec(out)
	if err == nil && e.resident >= 0 {
		err = e.shareStepOutput(out)
	}
	if err != nil {
		e.fail(err)
	}
	out.recount()
	e.debugCheckBoundary(out)
	if e.logging() {
		e.logOutcome(logKindStep, e.encodeStepRecord(out))
		e.stepsSince++
		if e.cfg.CheckpointEvery > 0 && e.stepsSince >= e.cfg.CheckpointEvery {
			if err := e.saveCheckpoint(e.encodeImage()); err != nil {
				e.abort(err)
			}
		}
	}
	// The resize policy runs after the step has fully committed (output
	// recounted, checkpoint taken): a membership change here is a pure
	// barrier event, and the subsets the driver holds remap lazily on next
	// use.
	if pol := e.cfg.ResizePolicy; pol != nil && fresh {
		want := pol(StepInfo{
			Superstep: e.met.Supersteps,
			Frontier:  out.Size(),
			Workers:   e.cfg.Workers,
			Vertices:  e.g.NumVertices(),
		})
		if want > 0 && want != e.cfg.Workers {
			if err := e.Resize(want); err != nil {
				e.fail(err)
			}
		}
	}
	return out
}

// recoverFrom makes one recovery attempt for a failed round whose cause is
// err: it starts a fresh incarnation at the current width and restores the
// stored image into it. A transient fault and a lost worker take the same
// path; the loss only counts as a restart, and the recovery budget stops a
// worker that keeps dying. A failed swap or restore is itself a failed
// round, and its error comes back.
func (e *Engine[V]) recoverFrom(err error) error {
	e.recoveries++
	rec := metrics.Record{Counters: metrics.Counters{Recoveries: 1}}
	start := time.Now()
	// A lost worker's own goroutine returns its KillError, which
	// parallelWorkers reports as the root cause; peers only saw a stall.
	var ke *comm.KillError
	if errors.As(err, &ke) {
		rec.Restarts = 1
	}
	if err = e.swapMembership(e.cfg.Workers); err == nil {
		err = e.restoreCheckpoint()
	}
	spent := time.Since(start)
	rec.Durations[metrics.Other], rec.RecoveryTime = spent, spent
	e.met.Fold(&rec)
	return err
}

// canRecover reports whether err is worth a rollback: in-process (a cluster
// process is restarted by its coordinator instead: peer state is remote),
// with checkpointing on, the engine not failed, the budget not exhausted, and
// neither a Close (re-running would fight it) nor a worker panic
// (deterministic: it would fire again).
func (e *Engine[V]) canRecover(err error) bool {
	var wp *workerPanic
	return !errors.As(err, &wp) && !errors.Is(err, ErrEngineClosed) && e.resident < 0 &&
		e.failed == nil && e.cfg.CheckpointEvery > 0 && e.recoveries < e.cfg.MaxRecoveries
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
// (graph, width, flavor) — the range cut reads the graph's in-degrees, which
// is why a placement change bumps ckptVersion. The counts are validated on
// restore, so an image taken over a different graph is rejected instead of
// silently misapplied.

// encodeWorkerSection serializes worker w's checkpointable state. Under a
// FixedCodec the buffer is sized exactly, and a flat V's values go in as one
// copy.
func (e *Engine[V]) encodeWorkerSection(w *worker[V]) []byte {
	fwords := w.frontier.Words()
	size := len(w.cur)*8 + 16 // a guess: other codecs' sizes vary per value
	if wire, ok := comm.FixedSize(e.codec); ok {
		size = uvarintLen(len(w.cur)) + len(w.cur)*wire + uvarintLen(len(fwords))
	}
	buf := make([]byte, 0, size+8*len(fwords))
	buf = binary.AppendUvarint(buf, uint64(len(w.cur)))
	buf = comm.AppendValues(e.codec, buf, w.cur)
	buf = binary.AppendUvarint(buf, uint64(len(fwords)))
	for _, word := range fwords {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// walkSection parses worker wid's encoded section: the slot count must lie in
// [minSlots, maxSlots], values(slots, src) decodes that many values from the
// head of src and reports their encoded size, and the frontier tail must hold
// exactly fwords words, which are returned still encoded.
func (e *Engine[V]) walkSection(wid int, sect []byte, minSlots, maxSlots, fwords int, values func(slots int, src []byte) (int, error)) ([]byte, error) {
	slots, off := binary.Uvarint(sect)
	if off <= 0 || slots < uint64(minSlots) || slots > uint64(maxSlots) {
		return nil, fmt.Errorf("core: checkpoint section for worker %d has %d slots, want %d..%d",
			wid, slots, minSlots, maxSlots)
	}
	n, err := values(int(slots), sect[off:])
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint section for worker %d: %w", wid, err)
	}
	off += n
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
		func(_ int, src []byte) (int, error) { return comm.DecodeValues(e.codec, src, w.cur) })
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
	old := newPlacement(e.cfg.UseHashPlacement, e.g, width)
	fwords := len(e.workers[0].frontier.Words())
	masters := make([]V, n)
	var rehomed uint64
	for p, sect := range img.Sections {
		owned := old.LocalCount(p)
		_, err := e.walkSection(p, sect, owned, n, fwords, func(slots int, src []byte) (int, error) {
			vals := make([]V, slots) // masters, then mirrors
			k, err := comm.DecodeValues(e.codec, src, vals[:owned])
			if err != nil {
				return 0, err
			}
			m, err := comm.DecodeValues(e.codec, src[k:], vals[owned:])
			if err != nil {
				return 0, fmt.Errorf("mirror %w", err)
			}
			for i, v := range vals[:owned] {
				masters[old.GlobalID(p, i)] = v
			}
			rehomed += uint64(k)
			return k + m, nil
		})
		if err != nil {
			return nil, 0, fmt.Errorf("core: image of width %d: %w", width, err)
		}
	}
	return masters, rehomed, nil
}

// encodeImage snapshots every worker's cur array and frontier bitmap. A
// cluster process holds one worker: its image is that worker's section plus
// the clusterMeta pinning the image to its log prefix.
func (e *Engine[V]) encodeImage() *CheckpointImage {
	if e.resident >= 0 {
		meta := clusterMeta{workers: e.cfg.Workers, resident: e.resident, records: e.cstore.records()}
		return &CheckpointImage{Sections: [][]byte{e.encodeWorkerSection(e.workers[e.resident]), encodeClusterMeta(meta)}}
	}
	img := &CheckpointImage{Sections: make([][]byte, len(e.workers))}
	for i, w := range e.workers {
		img.Sections[i] = e.encodeWorkerSection(w)
	}
	return img
}

// saveCheckpoint stamps img with the next sequence number and saves it, with
// the record count it holds the effect of: to the WorkerStore in cluster mode
// (the count is in img's meta, and the shared deterministic cadence makes
// every process's image S freeze the same count), else to the store.
func (e *Engine[V]) saveCheckpoint(img *CheckpointImage) error {
	e.ckptSeq++
	img.Seq = e.ckptSeq
	var total uint64
	for _, sect := range img.Sections {
		total += uint64(len(sect))
	}
	var err error
	if e.cstore != nil {
		err = e.cstore.saveImage(img)
	} else {
		err = e.store.Save(img)
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint %d: %w", e.ckptSeq, err)
	}
	e.imgRecs = len(e.log)
	e.stepsSince = 0
	e.met.Fold(&metrics.Record{Counters: metrics.Counters{Checkpoints: 1, CheckpointBytes: total}})
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
	e.met.Fold(&metrics.Record{Counters: metrics.Counters{MigratedBytes: rehomed}})
	return e.resyncMirrors()
}
