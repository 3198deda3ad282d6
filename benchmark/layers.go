package main

import (
	"slices"

	"flash"
	"flash/algo"
	"flash/metrics"
)

// counterMetrics derives the exact-count layer metrics from a collector that
// saw `ops` ops over a graph of `vertices` vertices. These are the program's own public counters; they repeat
// exactly for a fixed seed.
func counterMetrics(ls layerSet, col *metrics.Collector, ops, vertices int) {
	n := float64(ops)
	ls["core.supersteps_per_op"] = float64(col.Supersteps) / n
	ls["comm.bytes_per_op"] = float64(col.Bytes) / n
	ls["comm.msgs_per_op"] = float64(col.Messages) / n
	if col.Supersteps > 0 {
		ls["comm.bytes_per_superstep"] = float64(col.Bytes) / float64(col.Supersteps)
	}
	br := col.Breakdown()
	ls["core.compute_share"] = br[metrics.Compute]
	ls["core.comm_share"] = br[metrics.Communication]
	ls["core.ser_share"] = br[metrics.Serialization]
	ls["core.ckpt_per_op"] = float64(col.Checkpoints) / n
	ls["core.ckpt_bytes_per_op"] = float64(col.CheckpointBytes) / n

	fracs := make([]float64, len(col.Frontier))
	for i, f := range col.Frontier {
		fracs[i] = float64(f) / float64(vertices)
	}
	ls["core.frontier_frac_p50"] = median(fracs)

	if probes := col.BlockHits + col.BlockMisses; probes > 0 {
		ls["graph.cache_hit_ratio"] = float64(col.BlockHits) / float64(probes)
	}
	ls["graph.cache_evictions_per_op"] = float64(col.BlockEvictions) / n
	ls["graph.blk_bytes_read_per_op"] = float64(col.BlockBytesDense+col.BlockBytesSparse) / n
	ls["graph.blk_dense_steps_per_op"] = float64(col.BlockStepsDense) / n
	ls["graph.blk_sparse_steps_per_op"] = float64(col.BlockStepsSparse) / n
}

// commProbes prices the codec and one exchange round on a superstep's worth
// of this workload's traffic: the mean pairs and bytes a superstep ships.
func commProbes[V any](ls layerSet, col *metrics.Collector) error {
	pairs, payload := 1, 0
	if col.Supersteps > 0 {
		pairs = int(col.Messages) / col.Supersteps
		payload = int(col.Bytes) / col.Supersteps / engineWorkers
	}
	var err error
	if ls["comm.kv_encode_ns_per_kv"], ls["comm.kv_decode_ns_per_kv"], err = probeKV[V](pairs); err != nil {
		return err
	}
	ls["comm.mem_round_us"], ls["comm.tcp_round_us"], err = probeRounds(payload)
	return err
}

func (w *libWorkload) layers(ls layerSet, lc layerCtx) (string, error) {
	st := w.st
	ls["graph.gen_ms"] = ms(st.gen)
	ls["graph.blk_write_ms"] = ms(st.blkWrite)
	ls["graph.blk_open_ms"] = ms(st.blkOpen)
	ls["partition.build_ms"] = ms(st.partBuild)
	ls["partition.shared_mb"] = float64(w.h.SharedBytes()) / mib

	counterMetrics(ls, w.col, lc.countedOps, w.g.NumVertices())
	ls["core.state_mb"] = float64(w.stateBytes) / mib
	spanMetrics(ls, selfTimes(lc.tr.snapshot(), lc.tracedFrom), lc.tracedOps)

	var err error
	if w.spec.ooc {
		ls["graph.csr_scan_ns_per_edge"] = st.csrScanNs
		if ls["graph.blk_hit_ns_per_edge"], ls["graph.blk_miss_ns_per_edge"], err = probeBlocks(w.bg); err != nil {
			return "", err
		}
		// What the out-of-core run keeps resident: skeleton offsets, block
		// index and the cache budget (computed, not measured).
		ls["graph.resident_mb"] = float64(w.g.MemBytes()+w.bg.IndexBytes()+w.bg.EdgeBytes()/5) / mib
	} else {
		ls["graph.csr_scan_ns_per_edge"] = probeCSRScan(w.g)
		ls["graph.resident_mb"] = float64(w.g.MemBytes()) / mib
	}
	if ls["partition.replication_factor"], err = probeReplication(w.g, w.opts); err != nil {
		return "", err
	}
	if w.spec.pagerank {
		err = commProbes[prProps](ls, w.col)
	} else {
		err = commProbes[bfsProps](ls, w.col)
	}
	if err != nil {
		return "", err
	}
	if w.spec.ckptEvery > 0 {
		cp, err := probeCheckpoint(func(store flash.CheckpointStore) error {
			_, err := algo.BFS(w.g, w.roots[0], append(slices.Clone(w.opts), flash.WithCheckpointStore(store))...)
			return err
		}, w.cfg.tmp)
		if err != nil {
			return "", err
		}
		ls["core.ckpt_encode_ms"], ls["core.ckpt_decode_ms"], ls["core.ckpt_file_save_ms"] = cp.encodeMs, cp.decodeMs, cp.fileSaveMs
	}
	// Every library workload is built so that EdgeMap carries the op: the
	// pull kernel and mirror sync on RMAT, the per-superstep fixed cost times
	// hundreds of supersteps on the grid.
	return "core.EdgeMap", nil
}
