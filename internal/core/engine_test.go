package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"flash/graph"
	"flash/internal/comm"
)

// bfsProps is the BFS property struct used across engine tests.
type bfsProps struct {
	Dis int32
}

const inf = int32(1 << 30)

// runBFS runs the paper's Algorithm 2 on e and returns the distance array.
func runBFS(e *Engine[bfsProps], root graph.VID, mode Mode) []int32 {
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
		if v.ID == root {
			return bfsProps{Dis: 0}
		}
		return bfsProps{Dis: inf}
	}, StepOpts{})
	u := e.FromIDs(root)
	for u.Size() != 0 {
		u = e.EdgeMap(u, BaseE[bfsProps](),
			Weighted(nil,
				func(s, d Vtx[bfsProps], _ float32) bfsProps {
					return bfsProps{Dis: s.Val.Dis + 1}
				}),
			func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf },
			func(t, cur bfsProps) bfsProps { return t },
			StepOpts{Mode: mode})
	}
	out := make([]int32, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *bfsProps) { out[v] = val.Dis })
	return out
}

// seqBFS is the sequential reference.
func seqBFS(g *graph.Graph, root graph.VID) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func mustEngine(t testing.TB, g *graph.Graph, cfg Config) *Engine[bfsProps] {
	t.Helper()
	e, err := NewEngine[bfsProps](g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestBFSAllConfigurations(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":  graph.GenPath(37),
		"star":  graph.GenStar(23),
		"er":    graph.GenErdosRenyi(150, 700, 3),
		"rmat":  graph.GenRMAT(128, 512, 4),
		"grid":  graph.GenGrid(8, 9, 0, 1),
		"singl": graph.GenPath(1),
	}
	for name, g := range graphs {
		want := seqBFS(g, 0)
		for _, workers := range []int{1, 2, 3} {
			for _, threads := range []int{1, 2} {
				for _, mode := range []Mode{Push, Pull, Auto} {
					for _, hash := range []bool{false, true} {
						cfg := Config{Workers: workers, Threads: threads, UseHashPlacement: hash}
						e := mustEngine(t, g, cfg)
						got := runBFS(e, 0, mode)
						for v := range want {
							if got[v] != want[v] {
								t.Fatalf("%s w=%d t=%d mode=%v hash=%v: dist[%d]=%d want %d",
									name, workers, threads, mode, hash, v, got[v], want[v])
							}
						}
						if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
							t.Fatalf("%s w=%d mode=%v: %v", name, workers, mode, err)
						}
					}
				}
			}
		}
	}
}

func TestBFSOverTCP(t *testing.T) {
	g := graph.GenErdosRenyi(80, 300, 9)
	tr, err := comm.NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, Config{Workers: 3, Transport: tr})
	got := runBFS(e, 0, Auto)
	want := seqBFS(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("tcp: dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if e.Metrics().Supersteps == 0 {
		t.Fatal("no supersteps recorded")
	}
}

func TestVertexMapFilterAndUpdate(t *testing.T) {
	g := graph.GenPath(10)
	e := mustEngine(t, g, Config{Workers: 2})
	all := e.All()
	if all.Size() != 10 {
		t.Fatalf("All size %d", all.Size())
	}
	// Filter evens without a map function.
	evens := e.VertexMap(all, func(v Vtx[bfsProps]) bool { return v.ID%2 == 0 }, nil, StepOpts{})
	if evens.Size() != 5 {
		t.Fatalf("evens size %d", evens.Size())
	}
	// Update only the filtered ones.
	e.VertexMap(evens, nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 7} }, StepOpts{})
	e.Gather(func(v graph.VID, val *bfsProps) {
		want := int32(0)
		if v%2 == 0 {
			want = 7
		}
		if val.Dis != want {
			t.Fatalf("vertex %d: dis=%d want %d", v, val.Dis, want)
		}
	})
}

func TestSubsetOps(t *testing.T) {
	g := graph.GenPath(12)
	e := mustEngine(t, g, Config{Workers: 3})
	a := e.FromIDs(0, 1, 2, 3)
	b := e.FromIDs(2, 3, 4, 5)
	if u := e.Union(a, b); u.Size() != 6 {
		t.Fatalf("union size %d", u.Size())
	}
	if m := e.Minus(a, b); m.Size() != 2 || !e.Contains(m, 0) || e.Contains(m, 2) {
		t.Fatalf("minus wrong: %v", e.IDs(m))
	}
	if i := e.Intersect(a, b); i.Size() != 2 || !e.Contains(i, 2) {
		t.Fatalf("intersect wrong: %v", e.IDs(i))
	}
	e.Add(a, 11)
	if !e.Contains(a, 11) || a.Size() != 5 {
		t.Fatal("Add failed")
	}
	e.Add(a, 11) // idempotent
	if a.Size() != 5 {
		t.Fatal("Add not idempotent")
	}
	ids := e.IDs(b)
	if len(ids) != 4 || ids[0] != 2 || ids[3] != 5 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestGetSetGatherFold(t *testing.T) {
	g := graph.GenPath(8)
	e := mustEngine(t, g, Config{Workers: 2})
	e.Set(3, bfsProps{Dis: 42})
	if got := e.Get(3); got.Dis != 42 {
		t.Fatalf("Get(3) = %+v", got)
	}
	sum := Fold(e, int32(0), func(acc int32, _ graph.VID, val *bfsProps) int32 {
		return acc + val.Dis
	})
	if sum != 42 {
		t.Fatalf("Fold sum = %d", sum)
	}
	// Set must reach mirrors so a following dense read sees it.
	if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
		t.Fatal(err)
	}
}

// pjProps exercises virtual edge sets via pointer jumping: p(v) = p(p(v)).
type pjProps struct {
	P uint32
}

func TestVirtualEdgeSetPointerJumping(t *testing.T) {
	// Build a path where each vertex points to its predecessor; jumping
	// should converge everything to 0 in O(log n) rounds.
	const n = 33
	g := graph.GenPath(n)
	e, err := NewEngine[pjProps](g, Config{Workers: 3, FullMirrors: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.VertexMap(e.All(), nil, func(v Vtx[pjProps]) pjProps {
		if v.ID == 0 {
			return pjProps{P: 0}
		}
		return pjProps{P: uint32(v.ID) - 1}
	}, StepOpts{})

	// join(p, V): edge from v.p to v — an InFunc virtual set (pull mode).
	jp := InFunc(func(c *Ctx[pjProps], d graph.VID) []graph.VID {
		return []graph.VID{graph.VID(c.Get(d).P)}
	})
	for round := 0; round < 10; round++ {
		e.EdgeMapDense(e.All(), jp, Weighted(nil,
			func(s, d Vtx[pjProps], _ float32) pjProps {
				return pjProps{P: s.Val.P}
			}), nil, StepOpts{})
	}
	e.Gather(func(v graph.VID, val *pjProps) {
		if val.P != 0 {
			t.Fatalf("vertex %d not converged: p=%d", v, val.P)
		}
	})
}

func TestVirtualEdgeSetOutFunc(t *testing.T) {
	// join(U, p) as OutFunc: each vertex pushes its id to its parent; the
	// parent keeps the max (push mode with explicit reduce).
	const n = 20
	g := graph.GenPath(n)
	e, err := NewEngine[pjProps](g, Config{Workers: 2, FullMirrors: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.VertexMap(e.All(), nil, func(v Vtx[pjProps]) pjProps {
		p := uint32(0)
		if v.ID > 0 {
			p = uint32(v.ID) - 1
		}
		return pjProps{P: p}
	}, StepOpts{})
	parentEdges := OutFunc(func(c *Ctx[pjProps], u graph.VID) []graph.VID {
		return []graph.VID{graph.VID(c.Get(u).P)}
	})
	out := e.EdgeMapSparse(e.All(), parentEdges, Weighted(nil,
		func(s, d Vtx[pjProps], _ float32) pjProps {
			return pjProps{P: uint32(s.ID)}
		}), nil,
		func(t, cur pjProps) pjProps {
			if t.P > cur.P {
				return t
			}
			return cur
		}, StepOpts{})
	// Every vertex 0..n-2 is some vertex's parent; vertex 0 is its own.
	if out.Size() != n-1 {
		t.Fatalf("out size = %d, want %d", out.Size(), n-1)
	}
	// Vertex k should now hold max(child id pushed) = k+1.
	e.Gather(func(v graph.VID, val *pjProps) {
		if int(v) < n-1 && val.P != uint32(v)+1 {
			t.Fatalf("vertex %d: p=%d want %d", v, val.P, v+1)
		}
	})
}

func TestPanicsOnMisuse(t *testing.T) {
	g := graph.GenPath(6)
	e := mustEngine(t, g, Config{Workers: 2})
	e2 := mustEngine(t, g, Config{Workers: 2})
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("foreign subset", func() { e.VertexMap(e2.All(), nil, nil, StepOpts{}) })
	expectPanic("nil reduce sparse", func() {
		e.EdgeMapSparse(e.All(), BaseE[bfsProps](), Weighted(nil,
			func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }), nil, nil, StepOpts{})
	})
	expectPanic("oob vertex", func() { e.Get(100) })
	expectPanic("virtual without FullMirrors", func() {
		vf := OutFunc(func(c *Ctx[bfsProps], u graph.VID) []graph.VID { return nil })
		e.EdgeMapSparse(e.All(), vf, Weighted(nil,
			func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }), nil,
			func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	})
	expectPanic("pull on OutFunc", func() {
		vf := OutFunc(func(c *Ctx[bfsProps], u graph.VID) []graph.VID { return nil })
		e.EdgeMapDense(e.All(), vf, Weighted(nil,
			func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }), nil, StepOpts{})
	})
}

func TestConfigValidation(t *testing.T) {
	g := graph.GenPath(4)
	bad := []struct {
		cfg   Config
		field string
	}{
		{Config{Workers: -1}, "Workers"},
		{Config{Threads: -2}, "Threads"},
		{Config{BatchBytes: -1}, "BatchBytes"},
		{Config{Workers: 2, Transport: comm.NewMem(3)}, "Transport"},
		{Config{CheckpointEvery: -1}, "CheckpointEvery"},
	}
	for i, tc := range bad {
		_, err := NewEngine[bfsProps](g, tc.cfg)
		if err == nil {
			t.Errorf("config %d accepted: %+v", i, tc.cfg)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %d: error %v is not a *ConfigError", i, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("config %d: blamed field %q, want %q", i, ce.Field, tc.field)
		}
	}
}

func TestNoSyncSkipsMirrors(t *testing.T) {
	g := graph.GenPath(6)
	e := mustEngine(t, g, Config{Workers: 2})
	// Sync normally first so mirrors hold Dis=1.
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 1} }, StepOpts{})
	// Then update masters without sync: mirrors must keep the old value.
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 2} }, StepOpts{NoSync: true})
	if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err == nil {
		t.Fatal("NoSync step still synchronized mirrors")
	}
	if e.Get(0).Dis != 2 {
		t.Fatal("master not updated")
	}
}

func TestEdgeMapOutSetSemantics(t *testing.T) {
	// On a star with center 0, pushing from the center must activate all
	// leaves; pulling from leaves must activate only the center.
	g := graph.GenStar(9)
	e := mustEngine(t, g, Config{Workers: 2})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
	e.Set(0, bfsProps{Dis: 0})
	m := func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }
	c := func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf }
	r := func(t, cur bfsProps) bfsProps { return t }

	out := e.EdgeMapSparse(e.FromIDs(0), BaseE[bfsProps](), Weighted(nil, m), c, r, StepOpts{})
	if out.Size() != 8 || e.Contains(out, 0) {
		t.Fatalf("push out = %v", e.IDs(out))
	}

	// Reset and pull.
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
	e.Set(5, bfsProps{Dis: 0})
	out = e.EdgeMapDense(e.FromIDs(5), BaseE[bfsProps](), Weighted(nil, m), c, StepOpts{})
	if out.Size() != 1 || !e.Contains(out, 0) {
		t.Fatalf("pull out = %v", e.IDs(out))
	}
}

func TestReverseEdgeSet(t *testing.T) {
	// Directed path 0->1->2->3; pushing over Reverse(E) from 3 reaches 2.
	g := graph.FromEdges(4, true, [][2]graph.VID{{0, 1}, {1, 2}, {2, 3}})
	e := mustEngine(t, g, Config{Workers: 2})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
	e.Set(3, bfsProps{Dis: 0})
	m := func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }
	r := func(t, cur bfsProps) bfsProps { return t }
	u := e.FromIDs(3)
	for u.Size() > 0 {
		u = e.EdgeMap(u, ReverseE(BaseE[bfsProps]()), Weighted(nil, m),
			func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf }, r, StepOpts{})
	}
	for v := 0; v < 4; v++ {
		if got := e.Get(graph.VID(v)).Dis; got != int32(3-v) {
			t.Fatalf("reverse dist[%d] = %d", v, got)
		}
	}
}

func TestJoinEURestrictsTargets(t *testing.T) {
	g := graph.GenStar(10) // center 0
	e := mustEngine(t, g, Config{Workers: 2})
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 0} }, StepOpts{})
	allowed := map[graph.VID]bool{3: true, 4: true}
	h := JoinEU(BaseE[bfsProps](), func(d graph.VID) bool { return allowed[d] })
	out := e.EdgeMapSparse(e.FromIDs(0), h, Weighted(nil,
		func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: 1} }), nil,
		func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	ids := e.IDs(out)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Fatalf("joinEU out = %v", ids)
	}
}

// ccProps for the label-propagation property test.
type ccProps struct {
	CC uint32
}

// TestQuickCCMatchesUnionFind runs label-propagation CC on random graphs
// across worker counts and compares component partitions with a union-find
// reference.
func TestQuickCCMatchesUnionFind(t *testing.T) {
	f := func(seed int64, nn, mm uint8, ww uint8) bool {
		n := int(nn)%50 + 2
		m := int(mm) % 120
		workers := int(ww)%4 + 1
		g := graph.GenErdosRenyi(n, m, seed)
		e, err := NewEngine[ccProps](g, Config{Workers: workers})
		if err != nil {
			return false
		}
		defer e.Close()
		runCC(e)
		// Union-find reference.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		g.Edges(func(a, b graph.VID, _ float32) bool {
			ra, rb := find(int(a)), find(int(b))
			if ra != rb {
				parent[ra] = rb
			}
			return true
		})
		// Same partition: labels equal iff same root.
		for v := 0; v < n; v++ {
			for x := v + 1; x < n; x++ {
				same := find(v) == find(x)
				lsame := e.Get(graph.VID(v)).CC == e.Get(graph.VID(x)).CC
				if same != lsame {
					t.Logf("seed=%d n=%d m=%d w=%d: vertices %d,%d same=%v labels=%v",
						seed, n, m, workers, v, x, same, lsame)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	g := graph.GenErdosRenyi(60, 240, 2)
	e := mustEngine(t, g, Config{Workers: 2})
	runBFS(e, 0, Auto)
	m := e.Metrics()
	if m.Supersteps < 2 {
		t.Fatalf("supersteps = %d", m.Supersteps)
	}
	if m.Total() == 0 {
		t.Fatal("no time recorded")
	}
	if len(m.Frontier) != m.Supersteps {
		t.Fatalf("frontier trace %d entries, %d steps", len(m.Frontier), m.Supersteps)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Auto: "auto", Push: "push", Pull: "pull", Mode(9): "mode(9)"} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestBatchBytesOverlap(t *testing.T) {
	// Functional check: eager flushing must not change results.
	g := graph.GenErdosRenyi(100, 500, 5)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{Workers: 3, BatchBytes: 64})
	got := runBFS(e, 0, Auto)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("overlap: dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestDisableNecessaryMirrors(t *testing.T) {
	g := graph.GenErdosRenyi(100, 500, 6)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{Workers: 3, DisableNecessaryMirrors: true})
	got := runBFS(e, 0, Auto)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("broadcast sync: dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestNecessaryMirrorsSendFewerMessages(t *testing.T) {
	g := graph.GenErdosRenyi(200, 600, 7)
	run := func(disable bool) uint64 {
		e := mustEngine(t, g, Config{Workers: 4, DisableNecessaryMirrors: disable})
		defer e.Close()
		runBFS(e, 0, Auto)
		return e.Metrics().Bytes
	}
	nec, bcast := run(false), run(true)
	if nec >= bcast {
		t.Fatalf("necessary-mirrors bytes %d >= broadcast bytes %d", nec, bcast)
	}
}

func TestEngineAccessors(t *testing.T) {
	g := graph.GenPath(5)
	e := mustEngine(t, g, Config{Workers: 2})
	if e.Graph() != g || e.Workers() != 2 {
		t.Fatal("accessors wrong")
	}
	if rf := e.ReplicationFactor(); rf < 1 {
		t.Fatalf("replication factor %g", rf)
	}
	if e.Config().Workers != 2 {
		t.Fatal("config accessor")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func BenchmarkEdgeMapSparseBFSStep(b *testing.B) {
	g := graph.GenRMAT(1<<12, 1<<15, 1)
	e, err := NewEngine[bfsProps](g, Config{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
		e.Set(0, bfsProps{Dis: 0})
		u := e.FromIDs(0)
		b.StartTimer()
		e.EdgeMapSparse(u, BaseE[bfsProps](), Weighted(nil,
			func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
			func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf },
			func(t, cur bfsProps) bfsProps { return t }, StepOpts{})
	}
}

func ExampleEngine_VertexMap() {
	g := graph.GenPath(4)
	e, _ := NewEngine[bfsProps](g, Config{Workers: 2})
	defer e.Close()
	out := e.VertexMap(e.All(), func(v Vtx[bfsProps]) bool { return v.ID < 2 }, nil, StepOpts{})
	fmt.Println(out.Size())
	// Output: 2
}
