package bench

// Out-of-core tier of the fixed perf suite: the XXL graph (an order of
// magnitude more edges than the XL tier) run through the FLASHBLK block
// backend with a cache budget well below the edge bytes, next to the same
// algorithms over the in-memory CSR. The stat carries the cache and
// scheduling counters, so the bimodal behavior (dense supersteps stream
// blocks, sparse supersteps read only frontier-resident blocks) is a
// committed baseline, not an implementation detail.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
)

// OOCStat is one out-of-core entry in BENCH_flash.json's ooc section.
type OOCStat struct {
	NsPerOp      int64 `json:"ns_per_op"`
	InMemNsPerOp int64 `json:"inmem_ns_per_op"`

	// Cache behavior under the budget (20% of the decoded edge bytes).
	CacheBudgetBytes int64   `json:"cache_budget_bytes"`
	EdgeBytes        uint64  `json:"edge_bytes"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	Evictions        uint64  `json:"evictions"`

	// Encoded bytes read from disk per superstep, split by scheduling mode.
	DenseSteps         uint64 `json:"dense_steps"`
	SparseSteps        uint64 `json:"sparse_steps"`
	BytesPerDenseStep  uint64 `json:"bytes_read_per_dense_step"`
	BytesPerSparseStep uint64 `json:"bytes_read_per_sparse_step"`

	// Memory: what the out-of-core run keeps resident (skeleton offsets,
	// block index, cache budget) next to the full in-memory CSR.
	ResidentBytes uint64 `json:"resident_bytes"`
	InMemBytes    uint64 `json:"inmem_bytes"`
	FileBytes     int64  `json:"file_bytes"`
}

// GenXXL deterministically generates the XXL-tier graph: >= 10x the stored
// edges of the XL tier (16384x12 keeps 362,422 edges after dedup; 65536x36
// keeps ~3.9M), the size class meant to be served from disk rather than
// resident.
func GenXXL() *graph.Graph {
	return graph.GenRMAT(65536, 65536*36, 101)
}

// oocAlgo is one XXL algorithm: run executes it over g and returns a
// result digest for cross-checking block vs CSR runs.
type oocAlgo struct {
	name string
	run  func(g *graph.Graph, opts []flash.Option) (uint64, error)
}

func oocAlgos() []oocAlgo {
	return []oocAlgo{
		{"bfs-xxl", func(g *graph.Graph, opts []flash.Option) (uint64, error) {
			dis, err := algo.BFS(g, 0, opts...)
			if err != nil {
				return 0, err
			}
			var sum uint64
			for _, d := range dis {
				sum = sum*31 + uint64(uint32(d))
			}
			return sum, nil
		}},
		{"cc-xxl", func(g *graph.Graph, opts []flash.Option) (uint64, error) {
			cc, err := algo.CC(g, opts...)
			if err != nil {
				return 0, err
			}
			var sum uint64
			for _, c := range cc {
				sum = sum*31 + uint64(c)
			}
			return sum, nil
		}},
	}
}

// MeasureOOC writes g to a FLASHBLK file in a throwaway directory and runs
// the XXL algorithms through the block backend at the given cache budget
// (<= 0 selects 20% of the decoded edge bytes), with the in-memory CSR run
// alongside as the baseline. Results must agree exactly between the two
// backends; a mismatch is an error, not a number.
func MeasureOOC(g *graph.Graph, budget int64, reps int) (map[string]OOCStat, error) {
	if reps < 1 {
		reps = 1
	}
	dir, err := os.MkdirTemp("", "flash-ooc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "xxl.blk")
	if err := graph.WriteBlockFile(g, path, graph.DefaultBlockSize); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	bg, err := graph.OpenBlockFile(path)
	if err != nil {
		return nil, err
	}
	defer bg.Close()
	if budget <= 0 {
		budget = int64(bg.EdgeBytes()) / 5
	}
	sk := bg.Skeleton()

	out := make(map[string]OOCStat, 2)
	for _, a := range oocAlgos() {
		var stat OOCStat
		stat.CacheBudgetBytes = budget
		stat.EdgeBytes = bg.EdgeBytes()
		stat.ResidentBytes = sk.MemBytes() + bg.IndexBytes() + uint64(budget)
		stat.InMemBytes = g.MemBytes()
		stat.FileBytes = fi.Size()

		memNs := make([]int64, 0, reps)
		oocNs := make([]int64, 0, reps)
		var memSum, oocSum uint64
		var last flash.RunResult
		for i := 0; i < reps; i++ {
			ns, sum, _, err := timedRun(a, g, nil)
			if err != nil {
				return nil, fmt.Errorf("%s inmem: %w", a.name, err)
			}
			memNs, memSum = append(memNs, ns), sum

			opts := []flash.Option{
				flash.WithGraphHandle(flash.NewBlockGraphHandle(bg)),
				flash.WithBlockCacheBytes(budget),
			}
			ns, sum, res, err := timedRun(a, sk, opts)
			if err != nil {
				return nil, fmt.Errorf("%s ooc: %w", a.name, err)
			}
			oocNs, oocSum, last = append(oocNs, ns), sum, res
		}
		if memSum != oocSum {
			return nil, fmt.Errorf("%s: block backend result digest %#x != in-memory %#x", a.name, oocSum, memSum)
		}
		stat.NsPerOp = median(oocNs)
		stat.InMemNsPerOp = median(memNs)
		if total := last.BlockHits + last.BlockMisses; total > 0 {
			stat.CacheHitRate = float64(last.BlockHits) / float64(total)
		}
		stat.Evictions = last.BlockEvictions
		stat.DenseSteps = last.BlockStepsDense
		stat.SparseSteps = last.BlockStepsSparse
		if last.BlockStepsDense > 0 {
			stat.BytesPerDenseStep = last.BlockBytesDense / last.BlockStepsDense
		}
		if last.BlockStepsSparse > 0 {
			stat.BytesPerSparseStep = last.BlockBytesSparse / last.BlockStepsSparse
		}
		out[a.name] = stat
	}
	return out, nil
}

// timedRun executes one algorithm run at w4 on the in-memory transport and
// returns its wall time, result digest, and run counters.
func timedRun(a oocAlgo, g *graph.Graph, extra []flash.Option) (int64, uint64, flash.RunResult, error) {
	var stats flash.RunStats
	opts := append([]flash.Option{
		flash.WithWorkers(4),
		flash.WithRunStats(func(s flash.RunStats) { stats = s }),
	}, extra...)
	start := time.Now()
	sum, err := a.run(g, opts)
	return time.Since(start).Nanoseconds(), sum, stats.Result, err
}
