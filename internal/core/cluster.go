// Cluster (multi-process SPMD) execution.
//
// In cluster mode every worker process runs the *same* driver program over
// the same deterministically-built graph and partition, but computes only
// its resident worker; the other workers are shells (placement metadata
// only). Correctness rests on two invariants the in-process engine already
// has and this file extends across processes:
//
//  1. Replicated driver decisions. The driver branches only on subset sizes
//     and Gather/Fold results. Subset sizes are made identical everywhere by
//     a per-superstep control round that broadcasts each resident's output
//     bits (shareStepOutput); Gather runs as a live allgather of master
//     values applied in ascending vertex order, so folds are byte-identical
//     regardless of placement.
//
//  2. One outcome log. The engine's outcome log (checkpoint.go) goes to the
//     WorkerStore, so a respawned process fast-forwards through the driver
//     by popping records instead of recomputing — exactly what in-process
//     recovery does after a restore — then goes live exactly at the
//     frontier, with its transport round counter at zero just like every
//     surviving peer after the coordinator's restart-all.
//
// In-process rollback recovery is disabled (canRecover is false in cluster
// mode): a failed superstep unwinds out of Run, the process exits with a
// classification code, and the coordinator restarts the fleet under a fresh
// membership epoch resuming from min(latest checkpoint).
package core

import (
	"encoding/binary"
	"fmt"

	"flash/graph"
	"flash/internal/comm"
)

// ClusterSpec switches an Engine into cluster mode.
type ClusterSpec struct {
	// Resident is the worker this process computes. Workers other than
	// Resident are shells: they hold the shared partition metadata but no
	// property state, and their supersteps run in peer processes.
	Resident int
	// Store is the process's durable checkpoint-plus-log store. nil runs
	// without durability (a restarted fleet recomputes from scratch).
	Store *WorkerStore
	// ResumeSeq is the checkpoint sequence to fast-forward from; 0 starts
	// fresh. The coordinator picks min over the fleet's registered latest
	// sequences so every process resumes from the same synchronization
	// point.
	ResumeSeq uint64
}

// clusterMeta is the second section of a cluster checkpoint image: enough to
// validate the image against the live configuration and to locate the log
// prefix the image corresponds to.
type clusterMeta struct {
	workers  int
	resident int
	records  uint64 // log records at the instant the image was taken
}

func encodeClusterMeta(m clusterMeta) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(m.workers))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(m.resident))
	binary.LittleEndian.PutUint64(buf[8:16], m.records)
	return buf
}

func decodeClusterMeta(b []byte) (clusterMeta, error) {
	if len(b) != 16 {
		return clusterMeta{}, fmt.Errorf("core: cluster checkpoint meta is %d bytes, want 16", len(b))
	}
	return clusterMeta{
		workers:  int(binary.LittleEndian.Uint32(b[0:4])),
		resident: int(binary.LittleEndian.Uint32(b[4:8])),
		records:  binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// initCluster prepares the durable side of cluster mode after the workers
// are built: a fresh run clears stale state from a previous incarnation, a
// resume loads the image, truncates the log to the image's record count, and
// hands the records to the engine's outcome log for the driver to pop.
func (e *Engine[V]) initCluster() error {
	spec := e.cfg.Cluster
	e.cstore = spec.Store
	if e.cstore == nil {
		return nil
	}
	if spec.ResumeSeq == 0 {
		return e.cstore.reset()
	}
	img, err := e.cstore.loadImage(spec.ResumeSeq)
	if err != nil {
		return err
	}
	if len(img.Sections) != 2 {
		return fmt.Errorf("core: cluster checkpoint %d has %d sections, want 2", spec.ResumeSeq, len(img.Sections))
	}
	meta, err := decodeClusterMeta(img.Sections[1])
	if err != nil {
		return err
	}
	if meta.workers != e.cfg.Workers || meta.resident != e.resident {
		return fmt.Errorf("core: cluster checkpoint %d was taken by worker %d of %d; this process is worker %d of %d",
			spec.ResumeSeq, meta.resident, meta.workers, e.resident, e.cfg.Workers)
	}
	recs, err := e.cstore.replay(meta.records)
	if err != nil {
		return err
	}
	// Install the image's values now: fast-forward never executes supersteps
	// (so nothing reads them early), and once the popped records run out the
	// state is exactly the live frontier's.
	if err := e.decodeWorkerSection(e.workers[e.resident], img.Sections[0]); err != nil {
		return err
	}
	e.log, e.ckptSeq = recs, spec.ResumeSeq
	return nil
}

// shareStepOutput is the control round that replicates the superstep's
// output subset across the fleet: each process broadcasts its resident's
// members as one frontier frame and ORs the peers' frames into their
// bitmaps, so every process ends the superstep with the identical subset
// (sizes, densities and termination tests then agree everywhere).
func (e *Engine[V]) shareStepOutput(out *Subset) error {
	if e.cfg.Workers == 1 {
		return nil
	}
	w := e.workers[e.resident]
	if len(w.encodeMembers(&out.local[e.resident])) > 0 {
		for to := 0; to < e.cfg.Workers; to++ {
			if to == e.resident {
				continue
			}
			payload := comm.GetBufN(len(w.fenc))
			copy(payload, w.fenc)
			if err := w.send(to, payload); err != nil {
				return err
			}
		}
	}
	if err := e.tr.EndRound(w.id); err != nil {
		return err
	}
	var frameErr error
	drainErr := e.tr.Drain(w.id, func(from int, data []byte) {
		if from == w.id || frameErr != nil {
			return
		}
		if err := decodeFrontier(data, out.local[from].bitmap().Words()); err != nil {
			frameErr = err
		}
	})
	e.met.Fold(w.rec)
	if drainErr != nil {
		return drainErr
	}
	return frameErr
}

// Step record layout: per worker of the membership the subset is laid out
// under, uvarint frame length followed by that many frontier-frame bytes;
// length 0 encodes an empty per-worker subset.

// encodeStepRecord serializes a superstep's output subset (in cluster mode
// the fully-replicated one), which must be laid out under the current
// membership: each worker's frame is encoded into its reused fenc scratch,
// so the record is allocated once, at its final size. The bytes do not
// depend on which form a worker's members are in.
func (e *Engine[V]) encodeStepRecord(out *Subset) []byte {
	size := 0
	for wi, w := range e.workers {
		size += binary.MaxVarintLen64 + len(w.encodeMembers(&out.local[wi]))
	}
	buf := make([]byte, 0, size)
	for _, w := range e.workers {
		buf = binary.AppendUvarint(buf, uint64(len(w.fenc)))
		buf = append(buf, w.fenc...)
	}
	return buf
}

// decodeStepRecord rehydrates a logged output subset (out must be freshly
// allocated: frames are OR'd in).
func (e *Engine[V]) decodeStepRecord(payload []byte, out *Subset) error {
	off := 0
	for wi := range out.local {
		n, k := binary.Uvarint(payload[off:])
		// Compared in uint64: a hostile length must not wrap int and slip past.
		if k <= 0 || n > uint64(len(payload)-off-k) {
			return fmt.Errorf("core: step record truncated at worker %d", wi)
		}
		off += k
		if n == 0 {
			continue
		}
		if err := decodeFrontier(payload[off:off+int(n)], out.local[wi].bitmap().Words()); err != nil {
			return fmt.Errorf("core: step record, worker %d: %w", wi, err)
		}
		off += int(n)
	}
	if off != len(payload) {
		return fmt.Errorf("core: step record has %d trailing bytes", len(payload)-off)
	}
	return nil
}

// allgather is driver-side Gather's live half in cluster mode: every process
// sends its resident's masters to every peer in ascending local order and
// rebuilds the full value array, so a Fold applied in ascending vertex order
// computes the identical byte-for-byte result in every process regardless of
// which vertices it masters.
func (e *Engine[V]) allgather() []V {
	n := e.g.NumVertices()
	w := e.workers[e.resident]
	masters := e.place.LocalCount(e.resident)
	vals := make([]V, n)
	if e.cfg.Workers > 1 {
		var sendErr error
		for l := 0; l < masters && sendErr == nil; l++ {
			gid := e.place.GlobalID(e.resident, l)
			for to := 0; to < e.cfg.Workers && sendErr == nil; to++ {
				if to != e.resident {
					sendErr = w.appendKV(to, uint32(gid), &w.cur[l])
				}
			}
		}
		if sendErr == nil {
			sendErr = w.flushAll()
		}
		if sendErr == nil {
			sendErr = e.tr.EndRound(w.id)
		}
		if sendErr != nil {
			e.fail(sendErr)
		}
		got := 0
		var badErr error
		drainErr := w.drainKV(w.kv.gidFrame, func(gid graph.VID, val *V) {
			if int(gid) >= n {
				if badErr == nil {
					badErr = fmt.Errorf("core: cluster gather received vertex %d of %d", gid, n)
				}
				return
			}
			vals[gid] = *val
			got++
		})
		e.met.Fold(w.rec)
		if drainErr != nil {
			e.fail(drainErr)
		}
		if badErr != nil {
			e.fail(badErr)
		}
		if got != n-masters {
			e.fail(fmt.Errorf("core: cluster gather received %d of %d remote masters", got, n-masters))
		}
	}
	for l := 0; l < masters; l++ {
		vals[e.place.GlobalID(e.resident, l)] = w.cur[l]
	}
	return vals
}
