package bench

import (
	"os"
	"testing"
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
