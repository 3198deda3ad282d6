package partition

import (
	"fmt"
	"sync"
	"testing"

	"flash/graph"
)

// cutGraphs are the shapes the edge cut must handle: a power-law graph with
// its hubs at low ids, a uniform grid, a star, a star whose hub outweighs a
// share, a path, a graph with no edges, and fewer vertices than workers.
func cutGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":     graph.GenRMAT(2048, 16384, 1),
		"grid":     graph.GenGrid(30, 30, 0, 1),
		"star":     graph.GenStar(300),
		"hub":      hubStar(),
		"path":     graph.GenPath(101),
		"edgeless": graph.NewBuilder(50).Build(),
		"n<m":      graph.GenPath(2),
	}
}

// hubStar is a directed star whose nine leaves each point at hub 0 a hundred
// times. In a simple graph no vertex outweighs a share (α alone sums to
// ≥ 4|V| per share at m ≥ 2); the parallel edges make the hub do so.
func hubStar() *graph.Graph {
	b := graph.NewBuilder(10).Directed(true).Dedup(false)
	for leaf := 1; leaf < 10; leaf++ {
		for k := 0; k < 100; k++ {
			b.AddEdge(graph.VID(leaf), 0)
		}
	}
	return b.Build()
}

// TestEdgeRangeCut checks NewEdgeRange on every cut graph at 1–4 workers:
// the ranges tile 0..n-1 in order, the partition over them keeps its
// invariants, and no worker's cost α + InDegree exceeds an equal share by
// more than the costliest single vertex.
func TestEdgeRangeCut(t *testing.T) {
	for gname, g := range cutGraphs() {
		for m := 1; m <= 4; m++ {
			t.Run(fmt.Sprintf("%s/w%d", gname, m), func(t *testing.T) {
				n := g.NumVertices()
				place := NewEdgeRange(g, m)
				if place.Workers() != m {
					t.Fatalf("Workers() = %d", place.Workers())
				}
				alpha := int64(8 * (m - 1))
				var total, maxc int64
				for v := 0; v < n; v++ {
					c := alpha + int64(g.InDegree(graph.VID(v)))
					total += c
					maxc = max(maxc, c)
				}
				next := 0
				for w := 0; w < m; w++ {
					if place.Start(w) != next {
						t.Fatalf("worker %d starts at %d, want %d", w, place.Start(w), next)
					}
					var cost int64
					for l := 0; l < place.LocalCount(w); l++ {
						v := place.GlobalID(w, l)
						if int(v) != next+l || place.Owner(v) != w || place.LocalIndex(v) != l {
							t.Fatalf("worker %d local %d: gid %d owner %d", w, l, v, place.Owner(v))
						}
						cost += alpha + int64(g.InDegree(v))
					}
					// cost <= total/m + maxc, without rounding the share.
					if cost*int64(m) > total+int64(m)*maxc {
						t.Errorf("worker %d costs %d, share %d/%d + largest vertex %d", w, cost, total, m, maxc)
					}
					next += place.LocalCount(w)
				}
				if next != n {
					t.Fatalf("ranges cover %d of %d vertices", next, n)
				}
				if err := New(g, place).CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestEdgeRangeRMATShare pins the cut's purpose: on RMAT, whose hubs sit at
// low ids, an equal vertex count gives worker 0 about 71% of the in-edges at
// two workers; the edge cut keeps the larger share at most 60%.
func TestEdgeRangeRMATShare(t *testing.T) {
	g := graph.GenRMAT(4096, 65536, 1)
	for _, tc := range []struct {
		name  string
		place *RangePlacement
		ok    bool
	}{{"edge", NewEdgeRange(g, 2), true}, {"count", NewRange(g.NumVertices(), 2), false}} {
		var in [2]int
		for w := range in {
			for l := 0; l < tc.place.LocalCount(w); l++ {
				in[w] += g.InDegree(tc.place.GlobalID(w, l))
			}
		}
		share := float64(max(in[0], in[1])) / float64(in[0]+in[1])
		t.Logf("%s cut: in-edges %d / %d, larger share %.3f", tc.name, in[0], in[1], share)
		if (share <= 0.60) != tc.ok {
			t.Errorf("%s cut: larger in-edge share %.3f, want <= 0.60: %v", tc.name, share, tc.ok)
		}
	}
}

// TestNewRangeIsUniformCut checks that NewRange, the cut at unit cost, keeps
// equal vertex counts with the remainder on the first workers.
func TestNewRangeIsUniformCut(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for m := 1; m <= 9; m++ {
			p := NewRange(n, m)
			for w := 0; w < m; w++ {
				want := n / m
				if w < n%m {
					want++
				}
				if p.LocalCount(w) != want {
					t.Fatalf("n=%d m=%d: worker %d holds %d, want %d", n, m, w, p.LocalCount(w), want)
				}
			}
		}
	}
}

// TestEdgeRangeStarHubAlone checks the one-heavy-vertex case: hubStar's hub
// costs more than a share at two and three workers, so it is worker 0's only
// master, and at three workers, where it costs more than two shares, the cut
// leaves worker 1 no masters at all.
func TestEdgeRangeStarHubAlone(t *testing.T) {
	g := hubStar()
	for _, tc := range []struct{ m, empty int }{{2, -1}, {3, 1}} {
		p := NewEdgeRange(g, tc.m)
		if p.LocalCount(0) != 1 {
			t.Errorf("w%d: hub worker holds %d masters, want 1", tc.m, p.LocalCount(0))
		}
		if tc.empty >= 0 && p.LocalCount(tc.empty) != 0 {
			t.Errorf("w%d: worker %d holds %d masters, want 0", tc.m, tc.empty, p.LocalCount(tc.empty))
		}
	}
}

// TestDegreeTableBuiltOnFirstUse checks that a part holds no pull view (its
// degree table, slot→gid map and slot rows) until a pull step asks for one —
// so a partition only ever pushed over pays nothing for it — and that
// SharedBytes counts the view once built: 8 B of degrees and 4 B of gid per
// slot, 4 B of row offset per master (plus one) and 4 B per master in-edge.
func TestDegreeTableBuiltOnFirstUse(t *testing.T) {
	g := graph.GenRMAT(2048, 16384, 1)
	p := New(g, NewEdgeRange(g, 2))
	before := p.SharedBytes()
	for _, part := range p.Parts {
		if part.view.Load() != nil {
			t.Fatalf("worker %d built its pull view before any use", part.Worker)
		}
	}
	var want uint64
	for _, part := range p.Parts {
		v := part.PullView()
		if len(v.Deg) != part.Slots.SlotCount() || part.PullView() != v {
			t.Fatalf("worker %d: %d entries for %d slots, or a second build", part.Worker, len(v.Deg), part.Slots.SlotCount())
		}
		inEdges := 0
		for l := 0; l < part.Slots.MasterCount(); l++ {
			inEdges += g.InDegree(part.Slots.GID(l))
		}
		want += 12*uint64(part.Slots.SlotCount()) + 4*uint64(part.Slots.MasterCount()+1) + 4*uint64(inEdges)
	}
	if got := p.SharedBytes() - before; got != want {
		t.Fatalf("SharedBytes grew by %d, want %d", got, want)
	}
}

// TestDegreesConcurrentFirstUse has engines sharing a partition ask for a
// part's pull view at once: one build, the same view for every caller.
func TestDegreesConcurrentFirstUse(t *testing.T) {
	g := graph.GenRMAT(1024, 8192, 3)
	part := New(g, NewEdgeRange(g, 2)).Parts[1]
	got := make([]*PullView, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = part.PullView()
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a view of its own", i)
		}
	}
}
