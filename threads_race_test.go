// Race-detector soak for the per-thread accumulator paths: sparse and dense
// EdgeMap kernels with Threads=4 on a skewed RMAT graph (hub-heavy degree
// distribution maximizes accumulator contention) must produce results
// identical to Threads=1. Run under `go test -race` this exercises phase-1
// shard accumulation, mergeAcc, the parallel phase-3 apply, publishNext, and
// the parallel mirror-sync encode.
package flash_test

import (
	"fmt"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
)

func TestThreadsRaceSoak(t *testing.T) {
	g := graph.GenRMAT(512, 4096, 11)
	for _, mode := range []struct {
		name string
		m    flash.Mode
	}{{"push", flash.Push}, {"pull", flash.Pull}, {"auto", flash.Auto}} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("bfs/%s/w%d", mode.name, w), func(t *testing.T) {
				want, err := algo.BFS(g, 0, flash.WithWorkers(w), withMode(mode.m))
				if err != nil {
					t.Fatal(err)
				}
				got, err := algo.BFS(g, 0,
					flash.WithWorkers(w), flash.WithThreads(4), withMode(mode.m))
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("dist[%d] = %d with Threads=4, %d with Threads=1", v, got[v], want[v])
					}
				}
			})
		}
	}
	// CC exercises label-min propagation with a full initial frontier (dense
	// phase-1 scan across all shards) and necessary-mirror syncs.
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("cc/w%d", w), func(t *testing.T) {
			want, err := algo.CC(g, flash.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			got, err := algo.CC(g, flash.WithWorkers(w), flash.WithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("label[%d] = %d with Threads=4, %d with Threads=1", v, got[v], want[v])
				}
			}
		})
	}
	// SSSP adds float32 weights; min-reduce keeps the comparison exact
	// regardless of merge fold order.
	t.Run("sssp/w4", func(t *testing.T) {
		want, err := algo.SSSP(g, 0, flash.WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := algo.SSSP(g, 0, flash.WithWorkers(4), flash.WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] = %v with Threads=4, %v with Threads=1", v, got[v], want[v])
			}
		}
	})
}
