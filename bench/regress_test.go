package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

// TestSparseAllocRegression guards the zero-allocation hot path: it loads
// the committed BENCH_flash.json baseline and re-measures the sparse-EdgeMap
// microbenchmark, failing if allocs/op regressed by more than 20% (plus a
// small absolute slack so single-digit baselines don't flake). Skips when no
// baseline is committed and under the race detector, whose instrumentation
// changes allocation counts.
func TestSparseAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("microbenchmark run skipped in -short mode")
	}
	base, err := ReadPerfJSON("../BENCH_flash.json")
	if os.IsNotExist(err) {
		t.Skip("no committed BENCH_flash.json baseline")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key        string
		w, threads int
	}{
		{"edgemap_sparse_w1t1", 1, 1},
		{"edgemap_sparse_w4t1", 4, 1},
	} {
		b, ok := base.Micro[c.key]
		if !ok {
			t.Errorf("%s missing from baseline", c.key)
			continue
		}
		cur := MicroSparse(c.w, c.threads)
		limit := b.AllocsPerOp + b.AllocsPerOp/5 + 8
		if got := cur.AllocsPerOp(); got > limit {
			t.Errorf("%s: %d allocs/op, baseline %d (limit %d): hot-path allocations regressed",
				c.key, got, b.AllocsPerOp, limit)
		} else {
			t.Logf("%s: %d allocs/op (baseline %d, limit %d)", c.key, got, b.AllocsPerOp, limit)
		}
	}
}

// TestStateMemoryRegression guards the compact master+mirror state layout: it
// re-measures per-worker state bytes on the fixed RMAT graph and fails if
// state_bytes_per_vertex grew more than 20% over the committed baseline.
// StateBytes is computed from slice capacities, not the GC heap, so the
// measurement is deterministic and runs everywhere.
func TestStateMemoryRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement skipped in -short mode")
	}
	base, err := ReadPerfJSON("../BENCH_flash.json")
	if os.IsNotExist(err) {
		t.Skip("no committed BENCH_flash.json baseline")
	}
	if err != nil {
		t.Fatal(err)
	}
	cur, err := MeasureStateMemory(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := base.Mem["state_w4t4"]
	if !ok {
		t.Skip("baseline predates the state-memory metric")
	}
	limit := b.StateBytesPerVertex * 1.2
	if cur.StateBytesPerVertex > limit {
		t.Errorf("state_bytes_per_vertex = %.2f, baseline %.2f (limit %.2f): state memory regressed",
			cur.StateBytesPerVertex, b.StateBytesPerVertex, limit)
	} else {
		t.Logf("state_bytes_per_vertex = %.2f (baseline %.2f, limit %.2f)",
			cur.StateBytesPerVertex, b.StateBytesPerVertex, limit)
	}
}

// TestOOCAllocRegression guards the recycled decode arenas: a block miss must
// decode into memory the cache already holds, so running BFS + PageRank(2)
// through the FLASHBLK backend at a 20% cache budget may allocate at most
// 2.5x the bytes the same ops allocate over the in-memory CSR (a fresh
// read buffer and two fresh arenas per miss made it 10x). Both sides run a
// prewarmed handle at w2 t1, flashmark's ooc-rmat/dense-rmat pairing.
func TestOOCAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	g := graph.GenRMAT(65536, 65536*16, 1)
	path := filepath.Join(t.TempDir(), "g.blk")
	if err := graph.WriteBlockFile(g, path, graph.DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	bg, err := graph.OpenBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()

	allocated := func(h *flash.GraphHandle, extra ...flash.Option) uint64 {
		h.Prewarm(2)
		opts := append([]flash.Option{flash.WithGraphHandle(h), flash.WithWorkers(2), flash.WithThreads(1)}, extra...)
		var before, after runtime.MemStats
		for op := 0; op < 4; op++ {
			if op == 1 { // op 0 warms the partition cache and the buffer pools
				runtime.ReadMemStats(&before)
			}
			if _, err := algo.BFS(h.Graph(), graph.VID(op), opts...); err != nil {
				t.Fatal(err)
			}
			if _, err := algo.PageRank(h.Graph(), 2, 0, opts...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 3
	}
	csr := allocated(flash.NewGraphHandle(g))
	ooc := allocated(flash.NewBlockGraphHandle(bg), flash.WithBlockCacheBytes(int64(bg.EdgeBytes()/5)))
	limit := csr * 5 / 2
	if ooc > limit {
		t.Errorf("out-of-core op allocates %d KB, in-memory %d KB (limit %d KB = 2.5x): block misses are allocating again",
			ooc>>10, csr>>10, limit>>10)
	} else {
		t.Logf("out-of-core op allocates %d KB, in-memory %d KB (limit %d KB = 2.5x)", ooc>>10, csr>>10, limit>>10)
	}
}
