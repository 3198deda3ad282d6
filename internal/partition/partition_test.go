package partition

import (
	"testing"
	"testing/quick"

	"flash/graph"
)

func TestRangePlacementBijective(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{10, 3}, {7, 7}, {5, 8}, {0, 2}, {100, 1}} {
		p := NewRange(tc.n, tc.m)
		total := 0
		for w := 0; w < tc.m; w++ {
			total += p.LocalCount(w)
		}
		if total != tc.n {
			t.Fatalf("n=%d m=%d: LocalCount sum = %d", tc.n, tc.m, total)
		}
		for v := 0; v < tc.n; v++ {
			w := p.Owner(graph.VID(v))
			l := p.LocalIndex(graph.VID(v))
			if got := p.GlobalID(w, l); got != graph.VID(v) {
				t.Fatalf("n=%d m=%d v=%d: roundtrip gave %d", tc.n, tc.m, v, got)
			}
			if l < 0 || l >= p.LocalCount(w) {
				t.Fatalf("local index %d out of range", l)
			}
		}
	}
}

func TestRangeBalance(t *testing.T) {
	p := NewRange(10, 4)
	counts := []int{p.LocalCount(0), p.LocalCount(1), p.LocalCount(2), p.LocalCount(3)}
	for _, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("unbalanced: %v", counts)
		}
	}
}

func TestHashPlacementBijective(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{10, 3}, {7, 7}, {5, 8}, {100, 1}} {
		p := NewHash(tc.n, tc.m)
		for v := 0; v < tc.n; v++ {
			w := p.Owner(graph.VID(v))
			l := p.LocalIndex(graph.VID(v))
			if got := p.GlobalID(w, l); got != graph.VID(v) {
				t.Fatalf("v=%d roundtrip %d", v, got)
			}
		}
		total := 0
		for w := 0; w < tc.m; w++ {
			total += p.LocalCount(w)
		}
		if total != tc.n {
			t.Fatalf("count sum %d != %d", total, tc.n)
		}
	}
}

func TestMirrorDiscovery(t *testing.T) {
	// Path 0-1-2-3 over 2 workers: worker0 owns {0,1}, worker1 owns {2,3}.
	g := graph.GenPath(4)
	p := New(g, NewRange(4, 2))
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Worker 0 must mirror vertex 2 (neighbor of 1); worker 1 must mirror 1.
	if !p.Parts[0].Mirrors.Test(2) {
		t.Error("worker 0 missing mirror of 2")
	}
	if !p.Parts[1].Mirrors.Test(1) {
		t.Error("worker 1 missing mirror of 1")
	}
	if p.Parts[0].Mirrors.Test(3) {
		t.Error("worker 0 should not mirror 3")
	}
	// Master 1 (worker 0, local 1) must list worker 1 as mirror holder.
	mw := p.Parts[0].MirrorWorkers(1)
	if len(mw) != 1 || mw[0] != 1 {
		t.Errorf("mirror workers of vertex 1 = %v", mw)
	}
	// Vertex 0's only neighbor is local, so no mirrors.
	if len(p.Parts[0].MirrorWorkers(0)) != 0 {
		t.Errorf("vertex 0 should have no mirrors, got %v", p.Parts[0].MirrorWorkers(0))
	}
}

func TestReplicationFactor(t *testing.T) {
	g := graph.GenComplete(8)
	p1 := New(g, NewRange(8, 1))
	if rf := p1.ReplicationFactor(); rf != 1 {
		t.Fatalf("single worker RF = %g", rf)
	}
	p4 := New(g, NewRange(8, 4))
	// Complete graph: every vertex mirrored on all other 3 workers -> RF 4.
	if rf := p4.ReplicationFactor(); rf != 4 {
		t.Fatalf("K8/4 workers RF = %g, want 4", rf)
	}
}

func TestDirectedMirrorsBothDirections(t *testing.T) {
	// Directed edge 0 -> 3 over 2 workers: each side mirrors the other
	// endpoint (pull reads sources, push writes targets).
	g := graph.FromEdges(4, true, [][2]graph.VID{{0, 3}})
	p := New(g, NewRange(4, 2))
	if !p.Parts[0].Mirrors.Test(3) {
		t.Error("source worker must mirror target")
	}
	if !p.Parts[1].Mirrors.Test(0) {
		t.Error("target worker must mirror source")
	}
}

func TestQuickInvariantsRandomGraphs(t *testing.T) {
	f := func(seed int64, nn, mm, ww uint8) bool {
		n := int(nn)%60 + 2
		m := int(mm) * 3
		w := int(ww)%6 + 1
		g := graph.GenErdosRenyi(n, m, seed)
		for _, place := range []Placement{NewRange(n, w), NewHash(n, w)} {
			if err := New(g, place).CheckInvariants(); err != nil {
				t.Logf("n=%d m=%d w=%d: %v", n, m, w, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRange(10, 0)
}
