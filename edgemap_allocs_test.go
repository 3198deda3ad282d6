package flash_test

import (
	"testing"

	"flash"
	"flash/graph"
)

// TestEdgeMapStepAllocs bounds the allocations of a steady-state EdgeMap
// step called through the public API: a PageRank-shaped pull over All (R nil
// forces pull) and a push from a four-vertex frontier, at w1 and w2. The
// unweighted F and M reach the kernels as they are, so a per-call wrapper
// closure or a per-chunk kernel closure shows up here as an extra
// allocation per step. The bounds are the counts measured once the wrappers
// went and the frontier round's drain handler was bound once per worker
// (pull 10 and 16, push 8 and 13); what remains is the step's output subset,
// the fan-out's closures and one goroutine per spawned worker.
func TestEdgeMapStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	maxPull := map[int]float64{1: 10, 2: 16}
	maxPush := map[int]float64{1: 8, 2: 13}
	g := graph.GenRMAT(4096, 4096*8, 3)
	for _, workers := range []int{1, 2} {
		e, err := flash.NewEngine[denseProps](g, flash.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		e.VertexMap(e.All(), nil, func(v flash.Vertex[denseProps]) denseProps {
			return denseProps{Rank: 1 / float64(g.NumVertices())}
		})
		all := e.All()
		pull := func() { e.EdgeMap(all, e.E(), nil, denseUpdate, nil, nil) }
		pull()
		if got := testing.AllocsPerRun(20, pull); got > maxPull[workers] {
			t.Errorf("w%d: a pull step over All allocates %.1f times, want <= %.0f", workers, got, maxPull[workers])
		} else {
			t.Logf("w%d: %.1f allocs per pull step", workers, got)
		}

		U := e.FromIDs(1, 2, 3, 4)
		push := func() { e.EdgeMap(U, e.E(), nil, denseUpdate, nil, denseReduce) }
		push()
		if got := testing.AllocsPerRun(20, push); got > maxPush[workers] {
			t.Errorf("w%d: a push step allocates %.1f times, want <= %.0f", workers, got, maxPush[workers])
		} else {
			t.Logf("w%d: %.1f allocs per push step", workers, got)
		}
		e.Close()
	}
}
