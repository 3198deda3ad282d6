package flash

import (
	"testing"
	"testing/quick"

	"flash/graph"
)

type dis struct {
	D int32
}

const inf = int32(1 << 30)

func bfs(t *testing.T, g *graph.Graph, root VID, opts ...Option) []int32 {
	t.Helper()
	e, err := NewEngine[dis](g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.VertexMap(e.All(), nil, func(v Vertex[dis]) dis {
		if v.ID == root {
			return dis{0}
		}
		return dis{inf}
	})
	u := e.VertexMap(e.All(), func(v Vertex[dis]) bool { return v.ID == root }, nil)
	for u.Size() != 0 {
		u = e.EdgeMap(u, e.E(), nil,
			func(s, d Vertex[dis]) dis { return dis{s.Val.D + 1} },
			func(d Vertex[dis]) bool { return d.Val.D == inf },
			func(tv, cur dis) dis { return tv })
	}
	out := make([]int32, g.NumVertices())
	e.Gather(func(v VID, val *dis) { out[v] = val.D })
	return out
}

func TestPublicBFS(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 11)
	got := bfs(t, g, 0, WithWorkers(3), WithThreads(2))
	// Reference via path property: dist of neighbor differs by at most 1.
	if got[0] != 0 {
		t.Fatal("root distance not 0")
	}
	g.Edges(func(u, v VID, _ float32) bool {
		du, dv := got[u], got[v]
		if du != inf && dv != inf {
			diff := du - dv
			if diff < -1 || diff > 1 {
				t.Fatalf("edge (%d,%d): dist %d vs %d", u, v, du, dv)
			}
		}
		if (du == inf) != (dv == inf) {
			t.Fatalf("edge (%d,%d): one endpoint unreachable", u, v)
		}
		return true
	})
}

func TestOptionsApplied(t *testing.T) {
	g := graph.GenPath(10)
	e, err := NewEngine[dis](g,
		WithWorkers(2), WithThreads(2), WithFullMirrors())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() != 2 || e.NumVertices() != 10 {
		t.Fatal("accessor mismatch")
	}
}

// TestDensityPolicyBands pins the three bands: scale out at a frontier of
// ≥ 1/8 of the vertices, scale in at ≤ 1/64, hold (0) in between.
func TestDensityPolicyBands(t *testing.T) {
	policy := DensityPolicy(2, 8)
	for _, tc := range []struct{ frontier, want int }{
		{6400, 8}, {800, 8}, // dense, and exactly 1/8
		{799, 0}, {101, 0}, // the hysteresis band
		{100, 2}, {0, 2}, // exactly 1/64, and empty
	} {
		if got := policy(StepInfo{Superstep: 3, Frontier: tc.frontier, Workers: 4, Vertices: 6400}); got != tc.want {
			t.Errorf("frontier %d of 6400: policy asks for %d workers, want %d", tc.frontier, got, tc.want)
		}
	}
}

func TestStepOptions(t *testing.T) {
	g := graph.GenPath(6)
	e, err := NewEngine[dis](g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// ForceMode(Pull) on a sparse-looking frontier must still be correct.
	e.VertexMap(e.All(), nil, func(v Vertex[dis]) dis { return dis{inf} })
	e.Set(0, dis{0})
	u := e.FromIDs(0)
	for u.Size() > 0 {
		u = e.EdgeMap(u, e.E(), nil,
			func(s, d Vertex[dis]) dis { return dis{s.Val.D + 1} },
			func(d Vertex[dis]) bool { return d.Val.D == inf },
			func(tv, cur dis) dis { return tv },
			ForceMode(Pull))
	}
	if e.Get(5).D != 5 {
		t.Fatalf("dist(5) = %d", e.Get(5).D)
	}
}

func TestSetOpsAndAggregates(t *testing.T) {
	g := graph.GenPath(10)
	e, err := NewEngine[dis](g, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := e.FromIDs(1, 2, 3)
	b := e.FromIDs(3, 4)
	if e.Size(e.Union(a, b)) != 4 || e.Size(e.Minus(a, b)) != 2 || e.Size(e.Intersect(a, b)) != 1 {
		t.Fatal("set ops wrong")
	}
	if !e.Contain(a, 2) || e.Contain(a, 4) {
		t.Fatal("Contain wrong")
	}
	e.Add(a, 9)
	if ids := e.IDs(a); len(ids) != 4 || ids[3] != 9 {
		t.Fatalf("IDs = %v", ids)
	}
	if e.Size(e.None()) != 0 {
		t.Fatal("None not empty")
	}

	e.VertexMap(e.All(), nil, func(v Vertex[dis]) dis { return dis{int32(v.ID)} })
	if s := e.SumInt64(func(_ VID, val *dis) int64 { return int64(val.D) }); s != 45 {
		t.Fatalf("SumInt64 = %d", s)
	}
	if s := e.SumFloat64(func(_ VID, val *dis) float64 { return float64(val.D) }); s != 45 {
		t.Fatalf("SumFloat64 = %g", s)
	}
	if c := e.CountIf(func(_ VID, val *dis) bool { return val.D >= 5 }); c != 5 {
		t.Fatalf("CountIf = %d", c)
	}
}

type wprops struct {
	D float32
}

// TestWeightedEdgeMap runs a Bellman-Ford style SSSP over EdgeMapW and
// checks against a sequential reference.
func TestWeightedEdgeMap(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenErdosRenyi(60, 220, 5), 1)
	e, err := NewEngine[wprops](g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const winf = float32(1e30)
	e.VertexMap(e.All(), nil, func(v Vertex[wprops]) wprops {
		if v.ID == 0 {
			return wprops{0}
		}
		return wprops{winf}
	})
	u := e.FromIDs(0)
	for u.Size() > 0 {
		u = e.EdgeMapW(u, e.E(),
			func(s, d Vertex[wprops], w float32) bool { return s.Val.D+w < d.Val.D },
			func(s, d Vertex[wprops], w float32) wprops { return wprops{s.Val.D + w} },
			nil,
			func(tv, cur wprops) wprops {
				if tv.D < cur.D {
					return tv
				}
				return cur
			})
	}
	// Sequential Bellman-Ford.
	ref := make([]float32, g.NumVertices())
	for i := range ref {
		ref[i] = winf
	}
	ref[0] = 0
	for it := 0; it < g.NumVertices(); it++ {
		changed := false
		g.Edges(func(a, b VID, w float32) bool {
			if ref[a]+w < ref[b] {
				ref[b] = ref[a] + w
				changed = true
			}
			return true
		})
		if !changed {
			break
		}
	}
	e.Gather(func(v VID, val *wprops) {
		diff := val.D - ref[v]
		if diff < -1e-4 || diff > 1e-4 {
			t.Fatalf("sssp dist[%d] = %g, ref %g", v, val.D, ref[v])
		}
	})
}

func TestDSU(t *testing.T) {
	d := NewDSU(6)
	if d.Sets() != 6 || d.Len() != 6 {
		t.Fatal("init wrong")
	}
	if !d.Union(0, 1) || !d.Union(2, 3) || !d.Union(1, 2) {
		t.Fatal("union returned false on distinct sets")
	}
	if d.Union(0, 3) {
		t.Fatal("union returned true on same set")
	}
	if !d.Same(0, 3) || d.Same(0, 4) {
		t.Fatal("Same wrong")
	}
	if d.Sets() != 3 {
		t.Fatalf("Sets = %d", d.Sets())
	}
}

// Property: DSU agrees with a naive component labelling under random unions.
func TestQuickDSU(t *testing.T) {
	f := func(pairs []uint8) bool {
		const n = 16
		d := NewDSU(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for _, p := range pairs {
			a, b := VID(p%n), VID((p/n)%n)
			d.Union(a, b)
			if label[a] != label[b] {
				relabel(label[a], label[b])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d.Same(VID(i), VID(j)) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEUPublic(t *testing.T) {
	g := graph.GenStar(8)
	e, err := NewEngine[dis](g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	targets := e.FromIDs(2, 5)
	out := e.EdgeMapSparse(e.FromIDs(0), e.JoinEU(e.E(), targets), nil,
		func(s, d Vertex[dis]) dis { return dis{1} }, nil,
		func(tv, cur dis) dis { return tv })
	if ids := e.IDs(out); len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("JoinEU out = %v", ids)
	}
}

func TestWithTCPOption(t *testing.T) {
	g := graph.GenPath(16)
	got := bfs(t, g, 0, WithWorkers(2), WithTCP())
	for v, d := range got {
		if d != int32(v) {
			t.Fatalf("tcp bfs dist[%d]=%d", v, d)
		}
	}
}
