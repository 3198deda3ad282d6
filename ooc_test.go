package flash_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

// openXLBlock writes the bench XL graph to a FLASHBLK file in a test temp dir
// and reopens it out-of-core.
func openXLBlock(t *testing.T, g *graph.Graph, blockSize int) *graph.BlockGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.Name()+".blk")
	if err := graph.WriteBlockFile(g, path, blockSize); err != nil {
		t.Fatalf("WriteBlockFile: %v", err)
	}
	bg, err := graph.OpenBlockFile(path)
	if err != nil {
		t.Fatalf("OpenBlockFile: %v", err)
	}
	t.Cleanup(func() { bg.Close() })
	return bg
}

// TestBlockBackendMatchesCSR runs BFS, CC, and PageRank over the XL bench
// graph through the out-of-core block backend and requires byte-identical
// results against the in-memory CSR, across both transports and worker
// counts. The cache budget is far below the edge bytes, so the runs exercise
// eviction, not just decoding.
func TestBlockBackendMatchesCSR(t *testing.T) {
	g := graph.GenRMAT(16384, 16384*12, 101)
	bg := openXLBlock(t, g, 32<<10)
	sk := bg.Skeleton()

	wantBFS, err := algo.BFS(g, 0)
	if err != nil {
		t.Fatalf("CSR BFS: %v", err)
	}
	wantCC, err := algo.CC(g)
	if err != nil {
		t.Fatalf("CSR CC: %v", err)
	}
	wantPR, err := algo.PageRank(g, 10, 0)
	if err != nil {
		t.Fatalf("CSR PageRank: %v", err)
	}

	budget := int64(bg.EdgeBytes()) / 5 // 20% of decoded edge bytes
	for _, tc := range []struct {
		name string
		opts []flash.Option
	}{
		{"mem-w1", []flash.Option{flash.WithWorkers(1)}},
		{"mem-w4", []flash.Option{flash.WithWorkers(4)}},
		{"tcp-w1", []flash.Option{flash.WithWorkers(1), flash.WithTCP()}},
		{"tcp-w4", []flash.Option{flash.WithWorkers(4), flash.WithTCP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats []flash.RunStats
			opts := append([]flash.Option{
				flash.WithGraphHandle(flash.NewBlockGraphHandle(bg)),
				flash.WithBlockCacheBytes(budget),
				flash.WithRunStats(func(s flash.RunStats) { stats = append(stats, s) }),
			}, tc.opts...)

			gotBFS, err := algo.BFS(sk, 0, opts...)
			if err != nil {
				t.Fatalf("block BFS: %v", err)
			}
			gotCC, err := algo.CC(sk, opts...)
			if err != nil {
				t.Fatalf("block CC: %v", err)
			}
			gotPR, err := algo.PageRank(sk, 10, 0, opts...)
			if err != nil {
				t.Fatalf("block PageRank: %v", err)
			}

			for i := range wantBFS {
				if gotBFS[i] != wantBFS[i] {
					t.Fatalf("BFS[%d] = %d, want %d", i, gotBFS[i], wantBFS[i])
				}
			}
			for i := range wantCC {
				if gotCC[i] != wantCC[i] {
					t.Fatalf("CC[%d] = %d, want %d", i, gotCC[i], wantCC[i])
				}
			}
			for i := range wantPR {
				if gotPR[i] != wantPR[i] {
					t.Fatalf("PageRank[%d] = %v, want %v", i, gotPR[i], wantPR[i])
				}
			}

			if len(stats) != 3 {
				t.Fatalf("got %d run summaries, want 3", len(stats))
			}
			for i, s := range stats {
				r := s.Result
				if r.BlockMisses == 0 {
					t.Fatalf("run %d: no block reads recorded", i)
				}
				if r.BlockStepsDense+r.BlockStepsSparse == 0 {
					t.Fatalf("run %d: no block supersteps recorded", i)
				}
			}
		})
	}
}

// TestBlockBackendTinyCache forces heavy eviction (budget of a few blocks)
// and still requires exact results — correctness must not depend on
// residency.
func TestBlockBackendTinyCache(t *testing.T) {
	g := graph.GenRMAT(2048, 2048*12, 77)
	bg := openXLBlock(t, g, 4<<10)
	sk := bg.Skeleton()

	want, err := algo.CC(g)
	if err != nil {
		t.Fatalf("CSR CC: %v", err)
	}
	var st flash.RunStats
	got, err := algo.CC(sk,
		flash.WithGraphHandle(flash.NewBlockGraphHandle(bg)),
		flash.WithBlockCacheBytes(64<<10), // a handful of decoded blocks
		flash.WithWorkers(2),
		flash.WithRunStats(func(s flash.RunStats) { st = s }))
	if err != nil {
		t.Fatalf("block CC: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CC[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st.Result.BlockEvictions == 0 {
		t.Fatalf("tiny cache recorded no evictions: %+v", st.Result)
	}
}

// TestBlockHandleAdoption checks that a GraphHandle over a block graph makes
// every engine run out-of-core with no per-job options.
func TestBlockHandleAdoption(t *testing.T) {
	g := graph.GenRMAT(1024, 1024*8, 42)
	bg := openXLBlock(t, g, 8<<10)
	h := flash.NewBlockGraphHandle(bg)
	if h.Block() != bg || h.Graph() != bg.Skeleton() {
		t.Fatalf("handle accessors wrong")
	}

	want, err := algo.BFS(g, 3)
	if err != nil {
		t.Fatalf("CSR BFS: %v", err)
	}
	var st flash.RunStats
	got, err := algo.BFS(h.Graph(), 3,
		flash.WithGraphHandle(h),
		flash.WithRunStats(func(s flash.RunStats) { st = s }))
	if err != nil {
		t.Fatalf("handle BFS: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFS[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if st.Result.BlockMisses == 0 {
		t.Fatalf("handle run did not go through the block backend")
	}
}

// TestBlockRecycledArenasMatchCSR runs over recycled block memory as hard as
// the engine can: the cache holds one decoded block per worker, so every
// block change evicts the previous block into the free list and decodes the
// next into its arena, while four threads per worker each keep a cursor
// pinned and RC's JoinEE(E, E) re-enters the edge set from inside its own
// loop. BFS, CC, PageRank and RC must still be byte-identical to the CSR runs
// at the same width. Under -race a reader of a recycled arena is a reported
// race; under -tags flashdebug it reads the ^VID(0) poison, and a pin that
// survives a superstep fails the cache's boundary assertion.
func TestBlockRecycledArenasMatchCSR(t *testing.T) {
	g := graph.GenRMAT(2048, 2048*12, 77)
	bg := openXLBlock(t, g, 4<<10)
	sk := bg.Skeleton()

	var oneBlock int64
	for i := 0; i < bg.NumBlocks(graph.BlockOut); i++ {
		dec, err := bg.ReadBlock(graph.BlockOut, i)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if dec.Bytes() > oneBlock {
			oneBlock = dec.Bytes()
		}
	}
	const workers = 2
	width := []flash.Option{flash.WithWorkers(workers), flash.WithThreads(4)}
	var evictions uint64
	block := append([]flash.Option{
		flash.WithGraphHandle(flash.NewBlockGraphHandle(bg)),
		flash.WithBlockCacheBytes(workers * oneBlock),
		flash.WithRunStats(func(s flash.RunStats) { evictions += s.Result.BlockEvictions }),
	}, width...)

	wantBFS, err := algo.BFS(g, 0, width...)
	if err != nil {
		t.Fatalf("CSR BFS: %v", err)
	}
	gotBFS, err := algo.BFS(sk, 0, block...)
	if err != nil {
		t.Fatalf("block BFS: %v", err)
	}
	wantCC, err := algo.CC(g, width...)
	if err != nil {
		t.Fatalf("CSR CC: %v", err)
	}
	gotCC, err := algo.CC(sk, block...)
	if err != nil {
		t.Fatalf("block CC: %v", err)
	}
	wantPR, err := algo.PageRank(g, 5, 0, width...)
	if err != nil {
		t.Fatalf("CSR PageRank: %v", err)
	}
	gotPR, err := algo.PageRank(sk, 5, 0, block...)
	if err != nil {
		t.Fatalf("block PageRank: %v", err)
	}
	wantRC, err := algo.RC(g, width...)
	if err != nil {
		t.Fatalf("CSR RC: %v", err)
	}
	gotRC, err := algo.RC(sk, block...)
	if err != nil {
		t.Fatalf("block RC: %v", err)
	}

	if !reflect.DeepEqual(gotBFS, wantBFS) {
		t.Errorf("BFS over recycled blocks differs from CSR")
	}
	if !reflect.DeepEqual(gotCC, wantCC) {
		t.Errorf("CC over recycled blocks differs from CSR")
	}
	for i := range wantPR {
		if math.Float64bits(gotPR[i]) != math.Float64bits(wantPR[i]) {
			t.Fatalf("PageRank[%d] = %v over recycled blocks, %v over CSR", i, gotPR[i], wantPR[i])
		}
	}
	if gotRC != wantRC || wantRC == 0 {
		t.Errorf("RC = %d over recycled blocks, %d over CSR (want equal and nonzero)", gotRC, wantRC)
	}
	if evictions == 0 {
		t.Errorf("a one-block cache recorded no evictions: nothing was recycled")
	}
}
