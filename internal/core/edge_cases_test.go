package core

import (
	"sync/atomic"
	"testing"

	"flash/graph"
)

// Edge-case coverage for the FLASHWARE kernels: trivial graphs, empty
// frontiers, early-exit conditions, and the context-passing VertexMapC.

func TestEmptyFrontierEdgeMap(t *testing.T) {
	g := graph.GenPath(8)
	e := mustEngine(t, g, Config{Workers: 2})
	out := e.EdgeMapSparse(e.Empty(), BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }),
		nil,
		func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	if out.Size() != 0 {
		t.Fatalf("empty frontier produced %d outputs", out.Size())
	}
	out = e.EdgeMapDense(e.Empty(), BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }),
		nil, StepOpts{})
	if out.Size() != 0 {
		t.Fatalf("empty dense frontier produced %d outputs", out.Size())
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.GenPath(1)
	e := mustEngine(t, g, Config{Workers: 3}) // more workers than vertices
	u := e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 5} }, StepOpts{})
	if u.Size() != 1 || e.Get(0).Dis != 5 {
		t.Fatal("single vertex update failed")
	}
	out := e.EdgeMap(u, BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }),
		nil,
		func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	if out.Size() != 0 {
		t.Fatal("edgeless vertex produced edge-map output")
	}
}

func TestIsolatedVerticesUntouched(t *testing.T) {
	// Vertices 4..7 isolated: a full BFS must not touch them.
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3)
	g := b.Build()
	e := mustEngine(t, g, Config{Workers: 2})
	got := runBFS(e, 0, Auto)
	for v := 4; v < 8; v++ {
		if got[v] != inf {
			t.Fatalf("isolated vertex %d got distance %d", v, got[v])
		}
	}
}

func TestDenseEarlyExitCond(t *testing.T) {
	// C returning false must stop the in-edge scan: with C == "Dis still
	// inf", the working copy is written at most once per vertex.
	g := graph.GenComplete(12)
	e := mustEngine(t, g, Config{Workers: 2})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
	e.Set(0, bfsProps{Dis: 0})
	applications := make([]int32, g.NumVertices()) // dense: one goroutine per target
	e.EdgeMapDense(e.All(), BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps {
			applications[d.ID]++
			return bfsProps{Dis: s.Val.Dis + 1}
		}),
		func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf },
		StepOpts{})
	for v, c := range applications {
		if c > 1 {
			t.Fatalf("vertex %d updated %d times despite C", v, c)
		}
	}
}

func TestVertexMapCReadsOtherVertices(t *testing.T) {
	// Each vertex sums its neighbors' ids through ctx.Get: mirror reads
	// must see the initial superstep values even while masters update.
	g := graph.GenCycle(30)
	e := mustEngine(t, g, Config{Workers: 3, Threads: 2})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
		return bfsProps{Dis: int32(v.ID)}
	}, StepOpts{})
	e.VertexMapC(e.All(), nil, func(c *Ctx[bfsProps], v Vtx[bfsProps]) bfsProps {
		sum := int32(0)
		for _, nb := range e.Graph().OutNeighbors(v.ID) {
			sum += c.Get(nb).Dis
		}
		return bfsProps{Dis: sum}
	}, StepOpts{})
	n := int32(30)
	e.Gather(func(v graph.VID, val *bfsProps) {
		prev, next := (int32(v)+n-1)%n, (int32(v)+1)%n
		if val.Dis != prev+next {
			t.Fatalf("vertex %d: sum=%d want %d", v, val.Dis, prev+next)
		}
	})
}

func TestVertexMapCDeferredVisibility(t *testing.T) {
	// Within one VertexMapC superstep, reads must observe *old* values even
	// for already-processed vertices of the same worker (BSP semantics).
	g := graph.GenPath(16)
	e := mustEngine(t, g, Config{Workers: 1})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 1} }, StepOpts{})
	e.VertexMapC(e.All(), nil, func(c *Ctx[bfsProps], v Vtx[bfsProps]) bfsProps {
		// Read the previous vertex; if in-place writes leaked, vertex 1
		// would see vertex 0's new value (2) instead of 1.
		if v.ID > 0 {
			return bfsProps{Dis: c.Get(v.ID-1).Dis + 1}
		}
		return bfsProps{Dis: 2}
	}, StepOpts{})
	e.Gather(func(v graph.VID, val *bfsProps) {
		if v > 0 && val.Dis != 2 {
			t.Fatalf("vertex %d saw a current-superstep write: %d", v, val.Dis)
		}
	})
}

func TestFullMirrorsConsistencyAfterEveryStep(t *testing.T) {
	g := graph.GenErdosRenyi(60, 240, 8)
	e, err := NewEngine[bfsProps](g, Config{Workers: 3, FullMirrors: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runBFS(e, 0, Auto)
	// With FullMirrors every worker must agree on every vertex.
	for v := 0; v < g.NumVertices(); v++ {
		want := e.Get(graph.VID(v))
		for _, w := range e.workers {
			if w.cur[w.st.Slot(graph.VID(v))] != want {
				t.Fatalf("worker %d disagrees on vertex %d", w.id, v)
			}
		}
	}
}

func TestWeightsReachCallbacks(t *testing.T) {
	g := graph.NewBuilder(3).Weighted(true).AddEdgeW(0, 1, 2.5).AddEdgeW(1, 2, 4).Build()
	// One worker: the callback appends to a shared slice.
	e, err := NewEngine[bfsProps](g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var seen []float32
	e.EdgeMapSparse(e.All(), BaseE[bfsProps](), Weighted(nil,
		func(s, d Vtx[bfsProps], w float32) bfsProps {
			if s.ID < d.ID {
				seen = append(seen, w)
			}
			return *d.Val
		}), nil,
		func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	if len(seen) != 2 {
		t.Fatalf("saw %d weights", len(seen))
	}
	sum := seen[0] + seen[1]
	if sum != 6.5 {
		t.Fatalf("weights %v", seen)
	}
}

func TestDegreesInVertexView(t *testing.T) {
	g := graph.GenStar(5)
	e := mustEngine(t, g, Config{Workers: 2})
	e.VertexMap(e.All(), func(v Vtx[bfsProps]) bool {
		if v.ID == 0 && (v.Deg != 4 || v.InDeg != 4) {
			t.Errorf("center degrees %d/%d", v.Deg, v.InDeg)
		}
		if v.ID != 0 && v.Deg != 1 {
			t.Errorf("leaf %d degree %d", v.ID, v.Deg)
		}
		return false
	}, nil, StepOpts{})
}

// TestDegreesInPullSourceView checks the pull kernel's source view, whose
// degrees come from the worker's slot-indexed table, on a directed graph
// (out- and in-degree differ) for local and mirror sources alike.
func TestDegreesInPullSourceView(t *testing.T) {
	g := graph.GenRandomDirected(200, 1200, 9)
	for _, full := range []bool{false, true} {
		e := mustEngine(t, g, Config{Workers: 3, FullMirrors: full})
		var mirrors atomic.Int64
		e.EdgeMapDense(e.All(), BaseE[bfsProps](),
			Weighted(
				func(s, d Vtx[bfsProps], _ float32) bool {
					if int(s.Deg) != g.OutDegree(s.ID) || int(s.InDeg) != g.InDegree(s.ID) {
						t.Errorf("full=%v: source %d degrees %d/%d, graph %d/%d",
							full, s.ID, s.Deg, s.InDeg, g.OutDegree(s.ID), g.InDegree(s.ID))
					}
					if e.place.Owner(s.ID) != e.place.Owner(d.ID) {
						mirrors.Add(1)
					}
					return false
				},
				func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }),
			nil, StepOpts{NoSync: true})
		if mirrors.Load() == 0 {
			t.Fatalf("full=%v: no mirror source was pulled", full)
		}
	}
}
