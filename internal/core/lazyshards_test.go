package core

import (
	"testing"

	"flash/graph"
)

// shardsMaterialized reports how many workers have any lazy accumulator
// shard (index >= 1) materialized.
func shardsMaterialized[V any](e *Engine[V]) int {
	n := 0
	for _, w := range e.workers {
		for t := 1; t < len(w.acc); t++ {
			if w.acc[t].val != nil {
				n++
				break
			}
		}
	}
	return n
}

// TestLazyShardsStayNilForSmallFrontiers pins the memory contract behind the
// compact layout: a push step whose edge work is below the per-worker slot
// count must run phase 1 sequentially on shard 0 and never materialize the
// per-thread shards.
func TestLazyShardsStayNilForSmallFrontiers(t *testing.T) {
	g := graph.GenErdosRenyi(400, 1600, 11)
	e := mustEngine(t, g, Config{Workers: 2, Threads: 4})
	want := seqBFS(g, 0)
	got := runBFS(e, 0, Auto)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if n := shardsMaterialized(e); n != 0 {
		t.Fatalf("auto-mode BFS materialized lazy shards on %d workers", n)
	}
}

// TestParallelSparsePhaseUsesShards forces a push step over the full vertex
// set of a dense graph — edge work far above the slot-count floor — and
// checks the parallel phase 1 engages (shards materialize) and still reduces
// to the right answer, over a bitmap-form and a list-form frontier.
func TestParallelSparsePhaseUsesShards(t *testing.T) {
	for _, form := range []string{"bits", "list"} {
		t.Run(form, func(t *testing.T) { parallelSparsePhase(t, form) })
	}
}

func parallelSparsePhase(t *testing.T, form string) {
	g := graph.GenRMAT(1024, 1024*16, 3)
	e := mustEngine(t, g, Config{Workers: 2, Threads: 4})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
	e.Set(0, bfsProps{Dis: 0})
	// min-reduce of source ids over every edge: each target ends up with the
	// smallest in-neighbor id, checkable against the graph directly.
	out := e.EdgeMapSparse(formed(e, form, e.IDs(e.All())), BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: int32(s.ID)} }),
		nil,
		func(tv, cur bfsProps) bfsProps {
			if tv.Dis < cur.Dis {
				return tv
			}
			return cur
		}, StepOpts{Mode: Push})
	if n := shardsMaterialized(e); n != e.cfg.Workers {
		t.Fatalf("full-frontier push materialized shards on %d of %d workers", n, e.cfg.Workers)
	}
	minIn := make([]int32, g.NumVertices())
	for i := range minIn {
		minIn[i] = inf
	}
	g.Edges(func(s, d graph.VID, _ float32) bool {
		if int32(s) < minIn[d] {
			minIn[d] = int32(s)
		}
		return true
	})
	e.Gather(func(v graph.VID, val *bfsProps) {
		want := minIn[v]
		if v == 0 && want > 0 {
			want = 0 // vertex 0 keeps its seeded value unless beaten
		}
		if val.Dis != want {
			t.Fatalf("vertex %d: min in-neighbor %d, want %d", v, val.Dis, want)
		}
	})
	if out.Size() == 0 {
		t.Fatal("full-frontier push activated nothing")
	}
	if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
		t.Fatal(err)
	}
}
