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
		push := func(U *Subset) *Subset {
			return e.EdgeMapSparse(U, BaseE[bfsProps](), nil,
				func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} },
				nil,
				func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
		}
		U := push(e.FromIDs(ids...)) // a frontier in the form steps emit
		push(U)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			push(U)
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
