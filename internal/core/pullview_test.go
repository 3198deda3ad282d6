package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"flash/graph"
)

// viewPull runs two dense steps that read everything a pull source exposes —
// its gid, both degrees, its value and the edge weight — first over a
// frontier of every third vertex under a C that stops a target early, then
// over all of V, and returns every vertex's value as bytes.
func viewPull(e *Engine[rankProps]) []byte {
	e.VertexMap(e.All(), nil, func(v Vtx[rankProps]) rankProps {
		return rankProps{R: float64(v.ID%17) + 0.25}
	}, StepOpts{})
	var ids []graph.VID
	for v := 0; v < e.Graph().NumVertices(); v += 3 {
		ids = append(ids, graph.VID(v))
	}
	M := func(s, d Vtx[rankProps], w float32) rankProps {
		return rankProps{R: d.Val.R, Acc: d.Val.Acc*0.5 + s.Val.R*float64(w+1) + float64(s.ID)/7 + float64(s.Deg) + float64(s.InDeg)/3}
	}
	e.EdgeMapDense(e.FromIDs(ids...), e.E(), Weighted(func(s, _ Vtx[rankProps], _ float32) bool { return s.ID%5 != 1 }, M),
		func(d Vtx[rankProps]) bool { return d.Val.Acc < 400 }, StepOpts{})
	e.EdgeMapDense(e.All(), e.E(), Weighted(nil, M), nil, StepOpts{})
	var out []byte
	e.Gather(func(_ graph.VID, val *rankProps) {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(val.R))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(val.Acc))
	})
	return out
}

// TestPullViewRowSources runs viewPull where the pull reads slot rows (the
// partition's view over the CSR) and where it reads gid rows (a block graph;
// FullMirrors), on a weighted directed and a weighted undirected graph under
// both placements, and requires byte-identical values.
func TestPullViewRowSources(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"directed":   graph.WithRandomWeights(graph.GenRandomDirected(400, 3000, 4), 1),
		"undirected": graph.WithRandomWeights(graph.GenRMAT(512, 4096, 6), 2),
	} {
		bg := openRowsBlock(t, g)
		t.Cleanup(func() { bg.Close() })
		for _, hash := range []bool{false, true} {
			run := func(cfg Config, slots bool) []byte {
				t.Helper()
				cfg.Workers, cfg.UseHashPlacement = 3, hash
				eg := g
				if cfg.Shared != nil {
					eg = cfg.Shared.Graph()
				}
				e, err := NewEngine[rankProps](eg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				out := viewPull(e)
				for _, w := range e.workers {
					if (w.view.Off != nil) != slots {
						t.Fatalf("%s hash=%v %+v: worker %d has slot rows %v, want %v", name, hash, cfg, w.id, w.view.Off != nil, slots)
					}
				}
				return out
			}
			want := run(Config{}, true)
			if got := run(Config{Shared: NewSharedBlockGraph(bg)}, false); !slices.Equal(got, want) {
				t.Fatalf("%s hash=%v: block graph's gid rows differ from the view's slot rows", name, hash)
			}
			if got := run(Config{FullMirrors: true}, false); !slices.Equal(got, want) {
				t.Fatalf("%s hash=%v: FullMirrors' gid rows differ from the view's slot rows", name, hash)
			}
		}
	}
}

// TestPullViewSharedAndResized checks that engines borrowing one handle bind
// the partition's one view — the second engine's pull builds nothing — and
// that after a resize a worker binds the view of the new partition.
func TestPullViewSharedAndResized(t *testing.T) {
	g := graph.GenRMAT(1024, 8192, 8)
	sg := NewSharedGraph(g)
	engines := make([]*Engine[rankProps], 2)
	for i := range engines {
		e, err := NewEngine[rankProps](g, Config{Workers: 2, Shared: sg, CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines[i] = e
	}
	viewPull(engines[0])
	built := sg.SharedBytes()
	viewPull(engines[1])
	if sg.SharedBytes() != built {
		t.Fatalf("second engine's pull grew the shared bytes %d → %d", built, sg.SharedBytes())
	}
	for i, w := range engines[1].workers {
		if w.view != engines[0].workers[i].view || w.view != sg.Partition(2, false).Parts[i].PullView() {
			t.Fatalf("worker %d: engines hold different views", i)
		}
	}

	e := engines[1]
	if err := e.Resize(3); err != nil {
		t.Fatal(err)
	}
	fixed, err := NewEngine[rankProps](g, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	want := viewPull(fixed)
	if got := viewPull(e); !slices.Equal(got, want) {
		t.Fatal("resized engine's pull differs from a three-worker engine's")
	}
	for i, w := range e.workers {
		if w.view != e.part.Parts[i].PullView() || w.view.Off == nil {
			t.Fatalf("worker %d after resize: view is not the new partition's", i)
		}
	}
}
