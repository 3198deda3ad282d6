package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasicUndirected(t *testing.T) {
	g := FromEdges(4, false, [][2]VID{{0, 1}, {1, 2}, {2, 3}, {0, 1}}) // dup dropped
	if g.NumVertices() != 4 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 6 { // 3 undirected edges stored twice
		t.Fatalf("m = %d, want 6", g.NumEdges())
	}
	if d := g.OutDegree(1); d != 2 {
		t.Fatalf("deg(1) = %d", d)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Fatal("undirected edge missing a direction")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge")
	}
}

func TestBuilderDirected(t *testing.T) {
	g := FromEdges(3, true, [][2]VID{{0, 1}, {1, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if g.HasEdge(1, 0) {
		t.Fatal("reverse edge present in directed graph")
	}
	if g.InDegree(2) != 1 || g.OutDegree(2) != 0 {
		t.Fatal("in/out degree wrong")
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	g := FromEdges(2, false, [][2]VID{{0, 0}, {0, 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (self loop dropped)", g.NumEdges())
	}
	kept := NewBuilder(2).KeepSelfLoops(true).AddEdge(0, 0).Build()
	if kept.NumEdges() != 1 {
		t.Fatalf("self loop not kept: m=%d", kept.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(6, true, [][2]VID{{0, 5}, {0, 2}, {0, 4}, {0, 1}})
	adj := g.OutNeighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatalf("out-neighbors not sorted: %v", adj)
	}
}

func TestWeights(t *testing.T) {
	g := NewBuilder(3).Weighted(true).AddEdgeW(0, 1, 2.5).AddEdgeW(1, 2, 0.5).Build()
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	ws := g.OutWeights(0)
	if len(ws) != 2 { // undirected: 0->1 and (mirror of nothing) -- 0 has nbrs {1}
		// out-neighbors of 0: only vertex 1
		t.Logf("neighbors(0)=%v", g.OutNeighbors(0))
	}
	found := false
	g.Edges(func(u, v VID, w float32) bool {
		if u == 0 && v == 1 && w == 2.5 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("weight 2.5 not found on edge (0,1)")
	}
}

func TestDedupKeepsSmallestWeight(t *testing.T) {
	g := NewBuilder(2).Directed(true).Weighted(true).
		AddEdgeW(0, 1, 5).AddEdgeW(0, 1, 2).Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	if w := g.OutWeights(0)[0]; w != 2 {
		t.Fatalf("kept weight %g, want 2", w)
	}
}

func TestReverse(t *testing.T) {
	g := FromEdges(3, true, [][2]VID{{0, 1}, {1, 2}})
	r := Reverse(g)
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("reverse edges wrong")
	}
	u := FromEdges(3, false, [][2]VID{{0, 1}})
	ru := Reverse(u)
	if ru.NumEdges() != u.NumEdges() {
		t.Fatal("undirected reverse changed edge count")
	}
}

func TestInOutConsistency(t *testing.T) {
	g := GenErdosRenyi(200, 800, 1)
	totalIn, totalOut := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		totalIn += g.InDegree(VID(v))
		totalOut += g.OutDegree(VID(v))
	}
	if totalIn != g.NumEdges() || totalOut != g.NumEdges() {
		t.Fatalf("degree sums in=%d out=%d m=%d", totalIn, totalOut, g.NumEdges())
	}
	// every out edge must appear as an in edge
	g.Edges(func(u, v VID, _ float32) bool {
		for _, s := range g.InNeighbors(v) {
			if s == u {
				return true
			}
		}
		t.Fatalf("edge %d->%d missing from in-adjacency of %d", u, v, v)
		return false
	})
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GenErdosRenyi(50, 120, 7)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(strings.NewReader(sb.String()), LoadOptions{Directed: false, Name: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip m: %d != %d", g2.NumEdges(), g.NumEdges())
	}
	g.Edges(func(u, v VID, _ float32) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge %d->%d lost in round trip", u, v)
		}
		return true
	})
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"short line":  "1\n",
		"bad src":     "x 1\n",
		"bad dst":     "1 y\n",
		"bad weight":  "1 2 zz\n",
		"neg src":     "-1 2\n",
		"overflow id": "99999999999 2\n",
	}
	for name, in := range cases {
		opt := LoadOptions{Weighted: strings.Contains(in, "zz")}
		if _, err := LoadEdgeList(strings.NewReader(in), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Comments and blanks are fine.
	g, err := LoadEdgeList(strings.NewReader("# c\n% c\n\n0 1\n"), LoadOptions{})
	if err != nil || g.NumVertices() != 2 {
		t.Fatalf("comment handling: g=%v err=%v", g, err)
	}
}

func TestGenerators(t *testing.T) {
	t.Run("rmat-skew", func(t *testing.T) {
		g := GenRMAT(1024, 8192, 42)
		_, maxd := g.MaxOutDegree()
		avg := float64(g.NumEdges()) / float64(g.NumVertices())
		if float64(maxd) < 4*avg {
			t.Errorf("RMAT not skewed: max=%d avg=%.1f", maxd, avg)
		}
	})
	t.Run("grid-shape", func(t *testing.T) {
		g := GenGrid(10, 20, 0, 1)
		if g.NumVertices() != 200 {
			t.Fatalf("n=%d", g.NumVertices())
		}
		// interior degree 4, corner degree 2
		if d := g.OutDegree(0); d != 2 {
			t.Errorf("corner degree %d", d)
		}
		if d := g.OutDegree(VID(1*20 + 1)); d != 4 {
			t.Errorf("interior degree %d", d)
		}
	})
	t.Run("web-connected", func(t *testing.T) {
		g := GenWeb(500, 10, 8, 3)
		if cc := countComponents(g); cc != 1 {
			t.Errorf("web graph has %d components, want 1", cc)
		}
	})
	t.Run("rmat-connected", func(t *testing.T) {
		g := GenRMAT(300, 900, 5)
		if cc := countComponents(g); cc != 1 {
			t.Errorf("rmat graph has %d components, want 1", cc)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		a, b := GenRMAT(256, 1024, 9), GenRMAT(256, 1024, 9)
		if a.NumEdges() != b.NumEdges() {
			t.Fatal("same seed produced different graphs")
		}
	})
	t.Run("tree", func(t *testing.T) {
		g := GenTree(100, 2)
		if g.NumEdges() != 198 {
			t.Errorf("tree m=%d want 198", g.NumEdges())
		}
		if countComponents(g) != 1 {
			t.Error("tree disconnected")
		}
	})
	t.Run("complete", func(t *testing.T) {
		g := GenComplete(6)
		if g.NumEdges() != 30 {
			t.Errorf("K6 m=%d want 30", g.NumEdges())
		}
	})
}

// countComponents does a simple sequential union-find over stored edges.
func countComponents(g *Graph) int {
	parent := make([]int, g.NumVertices())
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
	g.Edges(func(u, v VID, _ float32) bool {
		ru, rv := find(int(u)), find(int(v))
		if ru != rv {
			parent[ru] = rv
		}
		return true
	})
	comps := map[int]bool{}
	for i := range parent {
		comps[find(i)] = true
	}
	return len(comps)
}

func TestWithRandomWeights(t *testing.T) {
	g := GenErdosRenyi(40, 100, 11)
	wg := WithRandomWeights(g, 1)
	if !wg.Weighted() {
		t.Fatal("not weighted")
	}
	if wg.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d != %d", wg.NumEdges(), g.NumEdges())
	}
	// symmetric weights
	wg.Edges(func(u, v VID, w float32) bool {
		adj, ws := wg.OutNeighbors(v), wg.OutWeights(v)
		for i, x := range adj {
			if x == u && ws[i] != w {
				t.Fatalf("asymmetric weight on (%d,%d): %g vs %g", u, v, w, ws[i])
			}
		}
		if w <= 0 || w > 1.001 {
			t.Fatalf("weight out of range: %g", w)
		}
		return true
	})
}

// Property: builder output is independent of edge insertion order.
func TestQuickBuildOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		var edges [][2]VID
		for i := 0; i < 60; i++ {
			edges = append(edges, [2]VID{VID(rng.Intn(n)), VID(rng.Intn(n))})
		}
		g1 := FromEdges(n, true, edges)
		shuf := append([][2]VID(nil), edges...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		g2 := FromEdges(n, true, shuf)
		if g1.NumEdges() != g2.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			a, b := g1.OutNeighbors(VID(v)), g2.OutNeighbors(VID(v))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of out-degrees equals NumEdges for arbitrary generated graphs.
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64, nn, mm uint8) bool {
		n := int(nn)%100 + 2
		m := int(mm) * 4
		g := GenErdosRenyi(n, m, seed)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.OutDegree(VID(v))
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndString(t *testing.T) {
	g := GenStar(10)
	s := g.ComputeStats()
	if s.MaxDegree != 9 || s.Isolated != 0 {
		t.Fatalf("stats %+v", s)
	}
	iso := NewBuilder(3).AddEdge(0, 1).Build()
	if iso.ComputeStats().Isolated != 1 {
		t.Fatal("isolated count wrong")
	}
	if !strings.Contains(g.String(), "|V|=10") {
		t.Fatalf("String() = %q", g.String())
	}
}

func TestLoadEdgeListMaxVertices(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("0 999999\n"), LoadOptions{MaxVertices: 100}); err == nil {
		t.Fatal("oversized id accepted")
	}
	g, err := LoadEdgeList(strings.NewReader("0 99\n"), LoadOptions{MaxVertices: 100})
	if err != nil || g.NumVertices() != 100 {
		t.Fatalf("g=%v err=%v", g, err)
	}
}

// TestUndirectedStoresOneAdjacency checks that an undirected graph's in-rows
// are its out-rows, in one backing array per CSR array, self-loops and
// multi-edges included; that a directed graph keeps distinct, correct
// in-rows; and that MemBytes counts a shared array once, a block skeleton's
// aliased offsets too.
func TestUndirectedStoresOneAdjacency(t *testing.T) {
	add := func(b *Builder) *Graph {
		for _, e := range []struct {
			u, v VID
			w    float32
		}{{0, 1, 3}, {1, 0, 2}, {0, 1, 1}, {2, 2, 5}, {2, 2, 4}, {3, 1, 7}, {1, 4, 6}} {
			b.AddEdgeW(e.u, e.v, e.w)
		}
		return b.Build()
	}
	newB := func(directed bool) *Builder {
		return NewBuilder(6).Directed(directed).Weighted(true).Dedup(false).KeepSelfLoops(true)
	}
	shares := func(a, b []VID) bool { return &a[:1][0] == &b[:1][0] }

	u := add(newB(false))
	if !shares(u.inAdj, u.outAdj) || &u.inOff[0] != &u.outOff[0] || &u.inW[0] != &u.outW[0] {
		t.Fatal("undirected graph holds a second adjacency")
	}
	for v := VID(0); v < 6; v++ {
		var want []string
		for i, s := range u.OutNeighbors(v) {
			want = append(want, fmt.Sprint(s, ":", u.OutWeights(v)[i]))
		}
		// The in-row, rebuilt from the out-rows of every vertex.
		var got []string
		for s := VID(0); s < 6; s++ {
			for i, d := range u.OutNeighbors(s) {
				if d == v {
					got = append(got, fmt.Sprint(s, ":", u.OutWeights(s)[i]))
				}
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("vertex %d: in-edges %v, out-row %v", v, got, want)
		}
	}
	if want := uint64(7*8 + u.NumEdges()*8); u.MemBytes() != want {
		t.Fatalf("undirected MemBytes %d, want %d", u.MemBytes(), want)
	}

	d := add(newB(true))
	if shares(d.inAdj, d.outAdj) {
		t.Fatal("directed graph shares its in-rows with its out-rows")
	}
	for v := VID(0); v < 6; v++ {
		var got, want []string
		for i, s := range d.InNeighbors(v) {
			got = append(got, fmt.Sprint(s, ":", d.InWeights(v)[i]))
		}
		for s := VID(0); s < 6; s++ {
			for i, x := range d.OutNeighbors(s) {
				if x == v {
					want = append(want, fmt.Sprint(s, ":", d.OutWeights(s)[i]))
				}
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("directed vertex %d: in-row %v, want %v", v, got, want)
		}
	}
	if want := uint64(2 * (7*8 + d.NumEdges()*8)); d.MemBytes() != want {
		t.Fatalf("directed MemBytes %d, want %d", d.MemBytes(), want)
	}

	if w := WithRandomWeights(GenRMAT(256, 1024, 1), 2); !shares(w.inAdj, w.outAdj) {
		t.Fatal("a weighted copy of an undirected graph holds a second adjacency")
	}
	buf := EncodeBlockFile(GenRMAT(256, 1024, 1), 512)
	bg, err := OpenBlockReader(bytes.NewReader(buf), int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bg.Skeleton().MemBytes(), uint64(257*8); got != want {
		t.Fatalf("skeleton MemBytes %d, want %d (offsets once)", got, want)
	}
}
