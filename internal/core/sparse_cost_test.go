package core

import (
	"runtime"
	"testing"

	"flash/graph"
)

// TestSparseStepFrontierProportional guards the cost model of a sparse
// superstep: the same frontier pushed over a grid of n and of 16n vertices
// must allocate about the same bytes per step, because nothing in the step
// may be sized by |V|.
func TestSparseStepFrontierProportional(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const steps = 40
	perStep := func(side, workers int) float64 {
		g := graph.GenGrid(side, side, 0, 1)
		e := mustEngine(t, g, Config{Workers: workers})
		ids := make([]graph.VID, 0, 8)
		for c := 0; c < 8; c++ {
			ids = append(ids, graph.VID(side+c)) // 8 cells of the second row
		}
		U := pushBFS(e, e.FromIDs(ids...)) // a frontier in the form steps emit
		pushBFS(e, U)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			pushBFS(e, U)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / steps
	}
	for _, workers := range []int{1, 2} {
		small, large := perStep(64, workers), perStep(256, workers)
		t.Logf("w%d: %.0f B/step at %d vertices, %.0f B/step at %d", workers, small, 64*64, large, 256*256)
		if large > 1.5*small {
			t.Errorf("w%d: a sparse step allocates %.0f B over %d vertices but %.0f B over %d: cost grows with |V|",
				workers, small, 64*64, large, 256*256)
		}
	}
}

// pushBFS runs one BFS-shaped push superstep from U.
func pushBFS(e *Engine[bfsProps], U *Subset) *Subset {
	return e.EdgeMapSparse(U, BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
		nil,
		func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
}

// TestSparseStepAllocs bounds the allocations a steady-state push superstep
// makes: its output subset and each worker's frontier-sized output list, the
// kernel's closure and one goroutine per spawned worker. Drain
// handlers, push closures and the fan-out's error slice are bound once per
// worker, not per step, so w2 stays within the bound w1 meets.
func TestSparseStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const maxAllocs = 10
	for _, workers := range []int{1, 2} {
		g := graph.GenGrid(64, 64, 0, 1)
		e := mustEngine(t, g, Config{Workers: workers})
		ids := make([]graph.VID, 0, 8)
		for c := 0; c < 8; c++ {
			ids = append(ids, graph.VID(64+c))
		}
		U := pushBFS(e, pushBFS(e, e.FromIDs(ids...)))
		allocs := testing.AllocsPerRun(40, func() { pushBFS(e, U) })
		t.Logf("w%d: %.1f allocs per push superstep", workers, allocs)
		if allocs > maxAllocs {
			t.Errorf("w%d: a push superstep allocates %.1f times, want <= %d", workers, allocs, maxAllocs)
		}
	}
}
