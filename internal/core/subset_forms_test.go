package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flash/graph"
)

// formed builds the subset of ids in the given form: "bits" puts every
// worker's share in a bitmap, "list" in a list, "mixed" alternates by worker.
func formed(e *Engine[bfsProps], form string, ids []graph.VID) *Subset {
	s := e.newSubset()
	for _, v := range ids {
		m := &s.local[e.place.Owner(v)]
		m.list = append(m.list, int32(e.place.LocalIndex(v)))
	}
	for w := range s.local {
		m := &s.local[w]
		slices.Sort(m.list)
		m.list = slices.Compact(m.list)
		if form == "bits" || (form == "mixed" && w%2 == 1) {
			m.bitmap()
		}
	}
	s.recount()
	return s
}

// sameSet fails unless got holds exactly want's members, seen through every
// read: Size, IDs and Contains of each vertex.
func sameSet(t *testing.T, e *Engine[bfsProps], label string, got, want *Subset) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", label, got.Size(), want.Size())
	}
	if g, w := e.IDs(got), e.IDs(want); !slices.Equal(g, w) {
		t.Fatalf("%s: IDs %v, want %v", label, g, w)
	}
	for v := 0; v < e.g.NumVertices(); v++ {
		if e.Contains(got, graph.VID(v)) != e.Contains(want, graph.VID(v)) {
			t.Fatalf("%s: Contains(%d) disagrees", label, v)
		}
	}
}

// TestSubsetFormsAgree is the representation differential test: every
// subset operation over list-form, bitmap-form and mixed operands gives the
// all-bitmap result.
func TestSubsetFormsAgree(t *testing.T) {
	forms := []string{"bits", "list", "mixed"}
	g := graph.GenErdosRenyi(300, 1200, 3)
	for _, hash := range []bool{false, true} {
		e := mustEngine(t, g, Config{Workers: 3, UseHashPlacement: hash})
		rng := rand.New(rand.NewSource(7))
		pick := func(k int) []graph.VID {
			ids := make([]graph.VID, k)
			for i := range ids {
				ids[i] = graph.VID(rng.Intn(g.NumVertices()))
			}
			return ids
		}
		for trial := 0; trial < 6; trial++ {
			a, b := pick(5+trial*15), pick(3+trial*10)
			refA, refB := formed(e, "bits", a), formed(e, "bits", b)
			for _, fa := range forms {
				for _, fb := range forms {
					label := fmt.Sprintf("hash=%v trial %d %s/%s", hash, trial, fa, fb)
					x, y := formed(e, fa, a), formed(e, fb, b)
					sameSet(t, e, label+" a", x, refA)
					sameSet(t, e, label+" union", e.Union(x, y), e.Union(refA, refB))
					sameSet(t, e, label+" minus", e.Minus(x, y), e.Minus(refA, refB))
					sameSet(t, e, label+" intersect", e.Intersect(x, y), e.Intersect(refA, refB))
					e.Add(x, b[0])
					e.Add(refA, b[0])
					sameSet(t, e, label+" add", x, refA)
					refA = formed(e, "bits", a)
				}
			}
		}
	}
}

// TestVertexMapKeepsListForm checks that VertexMap and VertexMapC over a
// list-form U emit a list holding exactly the members passing F, apply M to
// them alone and keep mirrors coherent.
func TestVertexMapKeepsListForm(t *testing.T) {
	g := graph.GenGrid(30, 30, 0, 2)
	e := mustEngine(t, g, Config{Workers: 3})
	ids := []graph.VID{1, 2, 40, 41, 300, 301, 302, 650, 899}
	even := func(v Vtx[bfsProps]) bool { return v.ID%2 == 0 }
	check := func(label string, out *Subset, tag int32) {
		t.Helper()
		for w := range out.local {
			if out.local[w].bits != nil {
				t.Fatalf("%s: worker %d emitted a bitmap over a list-form U", label, w)
			}
		}
		sameSet(t, e, label, out, e.FromIDs(2, 40, 300, 302, 650))
		for _, v := range ids {
			want := int32(0)
			if v%2 == 0 {
				want = tag + int32(v)
			}
			if got := e.Get(v).Dis; got != want {
				t.Fatalf("%s: vertex %d holds %d, want %d", label, v, got, want)
			}
		}
		if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	reset := func() {
		e.VertexMap(e.All(), nil, func(Vtx[bfsProps]) bfsProps { return bfsProps{} }, StepOpts{})
	}
	reset()
	check("VertexMap", e.VertexMap(formed(e, "list", ids), even,
		func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 1000 + int32(v.ID)} }, StepOpts{}), 1000)
	reset()
	check("VertexMapC", e.VertexMapC(formed(e, "list", ids),
		func(_ *Ctx[bfsProps], v Vtx[bfsProps]) bool { return even(v) },
		func(_ *Ctx[bfsProps], v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 2000 + int32(v.ID)} }, StepOpts{}), 2000)
}

// TestSubsetFormsRemapAcrossResize checks that a stale subset of either form
// remaps into the new membership with the all-bitmap result.
func TestSubsetFormsRemapAcrossResize(t *testing.T) {
	g := graph.GenErdosRenyi(200, 800, 9)
	ids := []graph.VID{0, 3, 17, 64, 65, 118, 150, 199}
	for _, form := range []string{"bits", "list", "mixed"} {
		e := mustEngine(t, g, Config{Workers: 2})
		s := formed(e, form, ids)
		if err := e.Resize(3); err != nil {
			t.Fatal(err)
		}
		sameSet(t, e, form+" after resize", s, e.FromIDs(ids...))
	}
}

// TestStepRecordFormIndependent checks that a step record is byte-identical
// whichever form each worker's share is encoded from — sparse and dense
// frames alike — and that it decodes back to the same members.
func TestStepRecordFormIndependent(t *testing.T) {
	g := graph.GenPath(2000)
	e := mustEngine(t, g, Config{Workers: 2})
	cases := map[string][]graph.VID{
		"empty":     nil,
		"single":    {1500},
		"scattered": {3, 700, 999, 1000, 1990},
		"run":       {},
		"edges":     {0, 63, 64, 127, 999, 1000, 1999},
	}
	for v := graph.VID(100); v < 160; v++ {
		cases["run"] = append(cases["run"], v, v+1000) // dense within its span
	}
	for name, ids := range cases {
		want := e.encodeStepRecord(formed(e, "bits", ids))
		for _, form := range []string{"list", "mixed"} {
			if got := e.encodeStepRecord(formed(e, form, ids)); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: record %x, bitmap encodes %x", name, form, got, want)
			}
		}
		back := e.newSubset()
		if err := e.decodeStepRecord(want, back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		back.recount()
		sameSet(t, e, name+" decoded", back, formed(e, "bits", ids))
	}
}

// TestSparseCrossoverFallback forces the word-scan fallback of each touched
// list at Threads 1 and 4, so that path stays exercised: results and traffic
// must match a run on the touched lists, and a step's output is a list
// exactly when the pending list held.
func TestSparseCrossoverFallback(t *testing.T) {
	g := graph.GenGrid(40, 40, 0, 1)
	want := seqBFS(g, 0)
	listOut := func(e *Engine[bfsProps]) bool {
		out := e.EdgeMapSparse(e.FromIDs(0, 1599), BaseE[bfsProps](), Weighted(nil,
			func(s, d Vtx[bfsProps], _ float32) bfsProps { return *d.Val }),
			nil, func(t, cur bfsProps) bfsProps { return t }, StepOpts{NoSync: true})
		return out.local[0].bits == nil && out.local[1].bits == nil
	}
	for _, threads := range []int{1, 4} {
		ref := mustEngine(t, g, Config{Workers: 2, Threads: threads})
		if got := runBFS(ref, 0, Push); !slices.Equal(got, want) {
			t.Fatalf("threads=%d: list path BFS differs from sequential", threads)
		}
		rc := ref.Metrics().Counters
		if !listOut(ref) {
			t.Fatalf("threads=%d: a two-vertex push emitted a bitmap", threads)
		}
		for _, force := range []string{"acc", "pend", "both"} {
			e := mustEngine(t, g, Config{Workers: 2, Threads: threads})
			for _, w := range e.workers {
				if force != "pend" {
					w.accList = w.accList[:0:0]
				}
				if force != "acc" {
					w.pendList = w.pendList[:0:0]
				}
			}
			label := fmt.Sprintf("threads=%d force=%s", threads, force)
			if got := runBFS(e, 0, Push); !slices.Equal(got, want) {
				t.Fatalf("%s: BFS differs from sequential", label)
			}
			ec := e.Metrics().Counters
			if ec.Supersteps != rc.Supersteps || ec.Messages != rc.Messages || ec.Bytes != rc.Bytes {
				t.Fatalf("%s: %d steps %d msgs %d bytes, list path %d/%d/%d",
					label, ec.Supersteps, ec.Messages, ec.Bytes, rc.Supersteps, rc.Messages, rc.Bytes)
			}
			if list := listOut(e); list != (force == "acc") {
				t.Fatalf("%s: list-form output is %v", label, list)
			}
		}
	}
}
