package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOOCCacheSmoke is the CI gate for the out-of-core tier: run the XXL
// algorithms on a generated FLASHBLK file with a deliberately tiny cache
// budget (2% of the edge bytes), emit the suite JSON, and assert — on the
// re-read document, so the committed artifact schema is what is checked —
// that the budget forced CC's evictions, that BFS admitted nothing, and that
// the cache counters are populated.
// MeasureOOC itself verifies the block-backend results against the
// in-memory CSR, so a passing run also proves XXL BFS and CC complete
// out-of-core with identical output.
func TestOOCCacheSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("XXL tier skipped in -short mode")
	}
	g := GenXXL()
	ooc, err := MeasureOOC(g, int64(g.NumEdges())*4/50, 1)
	if err != nil {
		t.Fatalf("MeasureOOC: %v", err)
	}

	path := filepath.Join(t.TempDir(), "BENCH_ooc.json")
	if err := WritePerfJSON(path, &PerfSuite{
		Schema:      "flash-bench/v2",
		GraphXXL:    "rmat-65536x36-seed101 (XXL tier, out-of-core)",
		VerticesXXL: g.NumVertices(),
		EdgesXXL:    g.NumEdges(),
		Reps:        1,
		Ooc:         ooc,
	}); err != nil {
		t.Fatalf("WritePerfJSON: %v", err)
	}
	got, err := ReadPerfJSON(path)
	if err != nil {
		t.Fatalf("ReadPerfJSON: %v", err)
	}
	if got.EdgesXXL < 10*362422 {
		t.Fatalf("XXL tier has %d edges, want >= 10x the XL tier", got.EdgesXXL)
	}
	for _, name := range []string{"bfs-xxl", "cc-xxl"} {
		o, ok := got.Ooc[name]
		if !ok {
			t.Fatalf("emitted JSON has no ooc entry %q", name)
		}
		if name == "bfs-xxl" {
			// Every BFS step reads rows, its pushes and its pulls alike (the
			// pulls have a C), so no block is admitted: nothing is hit or
			// evicted.
			if o.Evictions != 0 || o.CacheHitRate != 0 {
				t.Errorf("%s: %d evictions, hit rate %v: a BFS that reads only rows admitted blocks", name, o.Evictions, o.CacheHitRate)
			}
		} else {
			// CC's pulls have no C and stream whole blocks through the cache.
			if o.Evictions == 0 {
				t.Errorf("%s: tiny budget (%d B of %d edge B) forced no evictions", name, o.CacheBudgetBytes, o.EdgeBytes)
			}
			if o.CacheHitRate <= 0 || o.CacheHitRate > 1 {
				t.Errorf("%s: cache hit rate %v out of (0,1]", name, o.CacheHitRate)
			}
		}
		if o.DenseSteps == 0 || o.SparseSteps == 0 {
			t.Errorf("%s: bimodal step counters empty: dense=%d sparse=%d", name, o.DenseSteps, o.SparseSteps)
		}
		if o.BytesPerDenseStep == 0 || o.BytesPerSparseStep == 0 {
			t.Errorf("%s: per-step read volume empty: dense=%d sparse=%d", name, o.BytesPerDenseStep, o.BytesPerSparseStep)
		}
		if o.BytesPerSparseStep >= o.BytesPerDenseStep {
			t.Errorf("%s: sparse supersteps read %d B/step, dense %d B/step — a sparse step reads only its active sources' blocks, so should read less when the frontier is small",
				name, o.BytesPerSparseStep, o.BytesPerDenseStep)
		}
		if o.ResidentBytes >= o.InMemBytes {
			t.Errorf("%s: ooc resident %d B not below in-memory %d B", name, o.ResidentBytes, o.InMemBytes)
		}
	}
	if data, err := os.ReadFile(path); err == nil && testing.Verbose() {
		t.Logf("emitted ooc section:\n%s", data)
	}
}
