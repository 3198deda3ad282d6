package main

import (
	"fmt"
	"math"
)

// Workload names, in the order the all-workloads mode runs them.
const (
	wDense  = "dense-rmat"
	wOOC    = "ooc-rmat"
	wSparse = "sparse-grid"
	wCkpt   = "ckpt-grid"
	wServe  = "serve-mix"
)

var workloadNames = []string{wDense, wOOC, wSparse, wCkpt, wServe}

// Engine sizing shared by every workload: the box this harness is frozen for
// has two cores, so every engine runs two single-threaded workers and the
// wall-clock guard refuses anything below that.
const (
	engineWorkers = 2
	engineThreads = 1
	setupReps     = 5
	// nominalSeconds is the -seconds value the frozen op counts were
	// calibrated for; other values scale the counts, never the clock.
	nominalSeconds = 10
)

// metricDef is one row of BENCHMARK.json as the harness knows it; the
// name-sync test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system sees. op_fail_ratio is
// deliberately not here: the contract carries it as failed/attempted, and a
// metric whose healthy value is 0 has no relative bound.
//
// The bounds are not ISSUE 11's 10 %. The benchmark contract accepts a
// benchmark only while the spread of ten runs (distance between quartiles
// over median) stays inside the bound, and asks for a bound of three times
// the spread seen. On the shared two-core box the sizes were frozen on, the
// host slows every op by 10-25 % for about half a minute every couple of
// minutes - longer than a whole run, so no estimator inside a run votes it
// out - and ten runs then spread by 3-10 % on the timing metrics, up to 14 %
// when they are taken back to back (AA.md has the tables). Re-sizing does not
// help: the workloads the host disturbs most are the ones built on short
// supersteps, and that is what they are for. A benchmark change that shows a
// quieter machine may tighten them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer lists the single-layer metrics, layer = module name.
var perLayer = []metricDef{
	{"graph.gen_ms", "ms", "lower", 0},
	{"graph.blk_write_ms", "ms", "lower", 0},
	{"graph.blk_open_ms", "ms", "lower", 0},
	{"graph.csr_scan_ns_per_edge", "ns", "lower", 0},
	{"graph.blk_hit_ns_per_edge", "ns", "lower", 0},
	{"graph.blk_miss_ns_per_edge", "ns", "lower", 0},
	{"graph.cache_hit_ratio", "ratio", "higher", 0},
	{"graph.cache_evictions_per_op", "count", "lower", 0},
	{"graph.blk_bytes_read_per_op", "B", "lower", 0},
	{"graph.blk_dense_steps_per_op", "count", "lower", 0},
	{"graph.blk_sparse_steps_per_op", "count", "lower", 0},
	{"graph.resident_mb", "MB", "lower", 0},
	{"partition.build_ms", "ms", "lower", 0},
	{"partition.replication_factor", "ratio", "lower", 0},
	{"partition.shared_mb", "MB", "lower", 0},
	{"comm.bytes_per_op", "B", "lower", 0},
	{"comm.msgs_per_op", "count", "lower", 0},
	{"comm.bytes_per_superstep", "B", "lower", 0},
	{"comm.kv_encode_ns_per_kv", "ns", "lower", 0},
	{"comm.kv_decode_ns_per_kv", "ns", "lower", 0},
	{"comm.mem_round_us", "us", "lower", 0},
	{"comm.tcp_round_us", "us", "lower", 0},
	{"core.new_engine_ms", "ms", "lower", 0},
	{"core.close_ms", "ms", "lower", 0},
	{"core.supersteps_per_op", "count", "lower", 0},
	{"core.superstep_us_p50", "us", "lower", 0},
	{"core.edgemap_ms_per_op", "ms", "lower", 0},
	{"core.vertexmap_ms_per_op", "ms", "lower", 0},
	{"core.gather_ms_per_op", "ms", "lower", 0},
	{"core.frontier_frac_p50", "ratio", "lower", 0},
	{"core.compute_share", "ratio", "higher", 0},
	{"core.comm_share", "ratio", "lower", 0},
	{"core.ser_share", "ratio", "lower", 0},
	{"core.state_mb", "MB", "lower", 0},
	{"core.ckpt_per_op", "count", "lower", 0},
	{"core.ckpt_bytes_per_op", "B", "lower", 0},
	{"core.ckpt_encode_ms", "ms", "lower", 0},
	{"core.ckpt_decode_ms", "ms", "lower", 0},
	{"core.ckpt_file_save_ms", "ms", "lower", 0},
	{"flash.allocs_per_op", "count", "lower", 0},
	{"flash.alloc_kb_per_op", "KB", "lower", 0},
	{"flash.gc_cycles_per_op", "count", "lower", 0},
	{"flash.op_p90_ms", "ms", "lower", 0},
	{"flash.op_samples", "count", "higher", 0},
	{"algo.verify_ok_ratio", "ratio", "higher", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.run_ms_p50", "ms", "lower", 0},
	{"serve.http_overhead_ms_p50", "ms", "lower", 0},
	{"serve.job_p50_ms.bfs", "ms", "lower", 0},
	{"serve.job_p50_ms.cc", "ms", "lower", 0},
	{"serve.job_p50_ms.pagerank", "ms", "lower", 0},
	{"serve.job_p50_ms.sssp", "ms", "lower", 0},
	{"serve.job_p90_ms", "ms", "lower", 0},
	{"serve.result_kb_per_job", "KB", "lower", 0},
	{"serve.slot_busy_ratio", "ratio", "higher", 0},
	{"serve.rejected_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.coverage_ratio", "ratio", "higher", 0},
}

// sizing is one scale's frozen inputs. A round is one pass over the root
// pool; the timed phase is `blocks` blocks of a fixed number of rounds each,
// so every block does the same work and two commits measured with the same
// arguments do too.
type sizing struct {
	rmatN, rmatDeg   int
	gridRows         int // square grid
	serveN, serveDeg int
	pool             int            // roots per pool = ops per round
	blocks           int            // equal blocks of the timed phase
	rounds           map[string]int // rounds per block at nominalSeconds
}

var sizings = map[string]sizing{
	// The round counts put each timed phase at about nominalSeconds on the
	// two-core box the sizes were frozen on (13 s for ooc-rmat, whose block
	// cannot be shorter than two rounds without halving its op count).
	"full": {
		rmatN: 65536, rmatDeg: 16,
		gridRows: 400,
		serveN:   1024, serveDeg: 12,
		pool:   8,
		blocks: 5,
		rounds: map[string]int{
			wDense: 3, wOOC: 2, wSparse: 4, wCkpt: 3, wServe: 70,
		},
	},
	// tiny is the tier-1 smoke scale: two blocks of one four-root round.
	"tiny": {
		rmatN: 2048, rmatDeg: 8,
		gridRows: 40,
		serveN:   512, serveDeg: 8,
		pool:   4,
		blocks: 2,
		rounds: map[string]int{
			wDense: 1, wOOC: 1, wSparse: 1, wCkpt: 1, wServe: 1,
		},
	},
}

// blockRounds scales the frozen rounds per block by seconds/nominalSeconds: a
// fixed count, never a duration.
func (s sizing) blockRounds(workload string, seconds int) int {
	r := int(math.Round(float64(s.rounds[workload]) * float64(seconds) / nominalSeconds))
	return max(r, 1)
}

func lookupSizing(scale string) (sizing, error) {
	s, ok := sizings[scale]
	if !ok {
		return sizing{}, fmt.Errorf("unknown -scale %q (full, tiny)", scale)
	}
	return s, nil
}
