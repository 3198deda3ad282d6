package partition

import (
	"fmt"
	"testing"

	"flash/graph"
)

// pullViewGraphs are the shapes the pull view must lay out: a power-law
// graph, a grid, a weighted power-law graph, a directed graph that keeps
// self-loops and multi-edges and has isolated vertices, and hubStar, whose
// cut leaves worker 1 of three without masters.
func pullViewGraphs() map[string]*graph.Graph {
	b := graph.NewBuilder(40).Directed(true).Dedup(false).KeepSelfLoops(true).Weighted(true)
	for v := 0; v < 30; v++ { // vertices 30..39 stay isolated
		u := graph.VID(v)
		b.AddEdgeW(u, u, 0.5)
		b.AddEdgeW(u, graph.VID((v*7+3)%30), float32(v+1))
		b.AddEdgeW(u, graph.VID((v*7+3)%30), float32(v+2))
		b.AddEdgeW(graph.VID((v*11+5)%30), u, 2)
	}
	return map[string]*graph.Graph{
		"rmat":      graph.GenRMAT(2048, 16384, 1),
		"grid":      graph.GenGrid(30, 30, 0, 1),
		"rmat-w":    graph.WithRandomWeights(graph.GenRMAT(1024, 8192, 2), 3),
		"directed":  b.Build(),
		"hub-empty": hubStar(),
	}
}

// TestPullViewRows checks every worker's pull view at one to four workers
// under both placements: GIDs is the slot table's slot→gid map, and every
// master's slot row maps through it to exactly the graph's in-row, entry for
// entry, so the in-row's weights line up with it; each weight is the one the
// source's out-row holds for that edge.
func TestPullViewRows(t *testing.T) {
	for name, g := range pullViewGraphs() {
		for m := 1; m <= 4; m++ {
			places := map[string]Placement{"range": NewEdgeRange(g, m), "hash": NewHash(g.NumVertices(), m)}
			for pname, place := range places {
				t.Run(fmt.Sprintf("%s/w%d/%s", name, m, pname), func(t *testing.T) {
					checkPullViews(t, g, New(g, place))
				})
			}
		}
	}
	if New(hubStar(), NewEdgeRange(hubStar(), 3)).Parts[1].Slots.MasterCount() != 0 {
		t.Fatal("hubStar at three workers leaves every worker a master; the empty case tests nothing")
	}
}

func checkPullViews(t *testing.T, g *graph.Graph, p *Partitioned) {
	t.Helper()
	for _, part := range p.Parts {
		st, v := part.Slots, part.PullView()
		if len(v.GIDs) != st.SlotCount() || len(v.Off) != st.MasterCount()+1 || len(v.Src) != int(v.Off[st.MasterCount()]) {
			t.Fatalf("worker %d: %d gids, %d offsets, %d entries for %d slots, %d masters",
				part.Worker, len(v.GIDs), len(v.Off), len(v.Src), st.SlotCount(), st.MasterCount())
		}
		for slot, gid := range v.GIDs {
			if st.GID(slot) != gid {
				t.Fatalf("worker %d: slot %d maps to %d, its gid is %d", part.Worker, slot, gid, st.GID(slot))
			}
		}
		for l := 0; l < st.MasterCount(); l++ {
			d := v.GIDs[l]
			row, in, ws := v.Src[v.Off[l]:v.Off[l+1]], g.InNeighbors(d), g.InWeights(d)
			if len(row) != len(in) {
				t.Fatalf("worker %d master %d: row of %d entries, in-row of %d", part.Worker, d, len(row), len(in))
			}
			for i, x := range row {
				if int(x) >= st.SlotCount() || v.GIDs[x] != in[i] {
					t.Fatalf("worker %d master %d entry %d: slot %d, want the slot of %d", part.Worker, d, i, x, in[i])
				}
				if ws != nil && !hasEdge(g, in[i], d, ws[i]) {
					t.Fatalf("worker %d master %d entry %d: no edge %d->%d of weight %v", part.Worker, d, i, in[i], d, ws[i])
				}
			}
		}
	}
}

// hasEdge reports whether u's out-row holds d with weight w.
func hasEdge(g *graph.Graph, u, d graph.VID, w float32) bool {
	ws := g.OutWeights(u)
	for i, x := range g.OutNeighbors(u) {
		if x == d && ws[i] == w {
			return true
		}
	}
	return false
}
