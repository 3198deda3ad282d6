package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"flash/graph"
	"flash/internal/comm"
)

// resizeBFS runs BFS on e, calling resize(stepsDone) after every EdgeMap
// superstep so tests can reshape the membership mid-traversal.
func resizeBFS(t *testing.T, e *Engine[bfsProps], root graph.VID, resize func(step int)) []int32 {
	t.Helper()
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
		if v.ID == root {
			return bfsProps{Dis: 0}
		}
		return bfsProps{Dis: inf}
	}, StepOpts{})
	u := e.FromIDs(root)
	step := 0
	for u.Size() != 0 {
		u = e.EdgeMap(u, BaseE[bfsProps](),
			Weighted(nil,
				func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
			func(d Vtx[bfsProps]) bool { return d.Val.Dis == inf },
			func(v, cur bfsProps) bfsProps { return v },
			StepOpts{})
		step++
		if resize != nil {
			resize(step)
		}
	}
	out := make([]int32, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *bfsProps) { out[v] = val.Dis })
	return out
}

func checkBFS(t *testing.T, got, want []int32, label string) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d]=%d want %d", label, v, got[v], want[v])
		}
	}
}

func TestResizeMidRunMatchesFixedMembership(t *testing.T) {
	g := graph.GenErdosRenyi(200, 900, 17)
	want := seqBFS(g, 0)
	for _, hash := range []bool{false, true} {
		e := mustEngine(t, g, Config{Workers: 2, UseHashPlacement: hash, CheckpointEvery: 2})
		got := resizeBFS(t, e, 0, func(step int) {
			var err error
			switch step {
			case 1:
				err = e.Resize(5)
			case 3:
				err = e.Resize(3)
			}
			if err != nil {
				t.Fatalf("hash=%v resize after step %d: %v", hash, step, err)
			}
		})
		checkBFS(t, got, want, "resized run")
		if e.Workers() != 3 {
			t.Fatalf("hash=%v workers=%d want 3", hash, e.Workers())
		}
		if e.Metrics().Resizes != 2 {
			t.Fatalf("hash=%v resizes=%d want 2", hash, e.Metrics().Resizes)
		}
		if e.Metrics().MigratedBytes == 0 {
			t.Fatalf("hash=%v no migrated bytes recorded", hash)
		}
		if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
			t.Fatalf("hash=%v after resize: %v", hash, err)
		}
	}
}

func TestResizeWithoutCheckpointing(t *testing.T) {
	// Resize does not require checkpointing — it is just not crash-safe
	// without it.
	g := graph.GenPath(40)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{Workers: 3})
	got := resizeBFS(t, e, 0, func(step int) {
		if step == 2 {
			if err := e.Resize(2); err != nil {
				t.Fatal(err)
			}
		}
	})
	checkBFS(t, got, want, "uncheckpointed resize")
}

func TestResizeSubsetsRemapAcrossEpochs(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 5)
	e := mustEngine(t, g, Config{Workers: 2})
	s := e.FromIDs(3, 17, 64, 118)
	before := e.IDs(s)
	if err := e.Resize(4); err != nil {
		t.Fatal(err)
	}
	// The stale subset must remap lazily and keep its membership.
	if !e.Contains(s, 17) || e.Contains(s, 18) {
		t.Fatal("membership changed across resize")
	}
	after := e.IDs(s)
	if len(after) != len(before) {
		t.Fatalf("IDs: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("IDs: %v -> %v", before, after)
		}
	}
	if s.Size() != 4 {
		t.Fatalf("size=%d want 4", s.Size())
	}
	// And stay usable as a frontier.
	e.Add(s, 0)
	if s.Size() != 5 {
		t.Fatalf("size=%d want 5 after Add", s.Size())
	}
}

func TestResizeRejectsBadCount(t *testing.T) {
	g := graph.GenPath(8)
	e := mustEngine(t, g, Config{Workers: 2})
	err := e.Resize(0)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Resize(0): err=%v, want ConfigError", err)
	}
	// Same-count resize is a no-op, not an error.
	if err := e.Resize(2); err != nil {
		t.Fatalf("Resize(same): %v", err)
	}
	if e.Metrics().Resizes != 0 {
		t.Fatal("no-op resize counted")
	}
}

func TestResizePolicyDrivesAutomaticScaling(t *testing.T) {
	g := graph.GenErdosRenyi(150, 600, 23)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{
		Workers:         2,
		CheckpointEvery: 2,
		ResizePolicy: func(s StepInfo) int {
			// Scale out at the third superstep, back in at the fifth.
			switch s.Superstep {
			case 3:
				return 6
			case 5:
				return 3
			}
			return 0
		},
	})
	var got []int32
	if _, err := e.Run(func() error {
		got = resizeBFS(t, e, 0, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkBFS(t, got, want, "policy-resized run")
	if e.Metrics().Resizes != 2 {
		t.Fatalf("resizes=%d want 2", e.Metrics().Resizes)
	}
	if e.Workers() != 3 {
		t.Fatalf("workers=%d want 3", e.Workers())
	}
}

// countingTransport is a Mem transport that counts worker 0's completed
// rounds (every worker completes the same rounds, so this is the engine's
// round clock) and records the width of every incarnation the engine starts.
// Embedding keeps Mem's optional capability (EndpointCloser) visible to the
// Faulty wrapper layered on top by Config.FaultPlan.
type countingTransport struct {
	*comm.Mem
	rounds atomic.Uint32
	widths []int // one entry per Resize, in order (the engine serializes them)
}

func (c *countingTransport) EndRound(from int) error {
	if from == 0 {
		c.rounds.Add(1)
	}
	return c.Mem.EndRound(from)
}

func (c *countingTransport) Resize(n int) error {
	c.widths = append(c.widths, n)
	return c.Mem.Resize(n)
}

// resizeFaultGraph is the graph the post-swap fault tests run BFS over.
func resizeFaultGraph() *graph.Graph { return graph.GenErdosRenyi(160, 700, 31) }

// resyncRound returns the round address of the mirror resync that a resize
// after superstep 2 of a fault-free w-worker BFS over resizeFaultGraph
// performs. Faulty's addresses run on across Resize, restarting one past the
// rounds completed so far, so a fault keyed to this address can only land
// after the membership swap — never on a worker idling at the barrier.
func resyncRound(t *testing.T, workers int) uint32 {
	t.Helper()
	tr := &countingTransport{Mem: comm.NewMem(workers)}
	e := mustEngine(t, resizeFaultGraph(), Config{Workers: workers, Transport: tr})
	var round uint32
	resizeBFS(t, e, 0, func(step int) {
		if step == 2 {
			round = tr.rounds.Load() + 1
		}
	})
	return round
}

// runResizeFault runs BFS from a w-worker engine under plan, resizing to n
// after superstep 2, and checks the result. A short drain deadline turns a
// killed worker into a failed round quickly; checkpointing gives recovery an
// image, and Run recovers a failed resize by re-running the program.
func runResizeFault(t *testing.T, workers, n int, plan comm.FaultPlan) (*Engine[bfsProps], *countingTransport) {
	t.Helper()
	g := resizeFaultGraph()
	tr := &countingTransport{Mem: comm.NewMem(workers)}
	e := mustEngine(t, g, Config{
		Workers:         workers,
		Transport:       tr,
		CheckpointEvery: 1,
		MaxRecoveries:   4,
		DrainTimeout:    200 * time.Millisecond,
		FaultPlan:       &plan,
	})
	var got []int32
	if _, err := e.Run(func() error {
		got = resizeBFS(t, e, 0, func(step int) {
			if step == 2 {
				if err := e.Resize(n); err != nil {
					t.Fatalf("resize: %v", err)
				}
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkBFS(t, got, seqBFS(g, 0), "faulted resize run")
	if e.Workers() != n {
		t.Fatalf("workers=%d want %d", e.Workers(), n)
	}
	return e, tr
}

func TestResizeSurvivesKillAfterSwap(t *testing.T) {
	kills := map[string]comm.WorkerKill{
		"survivor": {Worker: 1, Round: resyncRound(t, 2)},
		// Worker 4 exists only after the swap, so its first transport
		// operation — where a round-0 kill fires — is inside the resize,
		// before it has ever announced liveness.
		"joiner": {Worker: 4, Round: 0},
	}
	for name, kill := range kills {
		t.Run(name, func(t *testing.T) {
			e, tr := runResizeFault(t, 2, 5, comm.FaultPlan{Kills: []comm.WorkerKill{kill}})
			m := e.Metrics()
			if m.Resizes != 1 || m.Recoveries == 0 || m.Restarts == 0 {
				t.Fatalf("resizes=%d recoveries=%d restarts=%d; want 1/>0/>0",
					m.Resizes, m.Recoveries, m.Restarts)
			}
			// Recovery is a fresh incarnation of the membership already
			// installed; nothing returns the transport to the old width and
			// back.
			if len(tr.widths) != 1+int(m.Recoveries) {
				t.Fatalf("transport started %d incarnations for 1 resize and %d recoveries", len(tr.widths), m.Recoveries)
			}
			for _, w := range tr.widths {
				if w != 5 {
					t.Fatalf("incarnation widths %v, want every one at the new width 5", tr.widths)
				}
			}
		})
	}
}

func TestResizeCorruptResyncFrameIsRecovered(t *testing.T) {
	// During a resize master state never crosses the wire (it is decoded from
	// the CRC-protected image); the resync round ships mirrors in ordinary KV
	// frames, which carry no checksum of their own over the mem transport. The
	// seed puts the flip where it breaks the frame's structure, so it surfaces
	// as a decode error exactly as it would in any other sync round.
	e, _ := runResizeFault(t, 2, 4, comm.FaultPlan{
		Seed:     11,
		Corrupts: []comm.FrameCorrupt{{From: 0, To: 1, Round: resyncRound(t, 2)}},
	})
	if c := e.tr.(*comm.Faulty).Counts().Corrupts; c != 1 {
		t.Fatalf("corrupts=%d want 1", c)
	}
	m := e.Metrics()
	if m.Resizes != 1 || m.Recoveries == 0 {
		t.Fatalf("resizes=%d recoveries=%d; want 1/>0", m.Resizes, m.Recoveries)
	}
	if m.Restarts != 0 {
		t.Fatalf("corruption caused %d cold restarts; rollback alone should repair it", m.Restarts)
	}
}

func TestResizeDelayedFramesStillComplete(t *testing.T) {
	e, _ := runResizeFault(t, 2, 4, comm.FaultPlan{DelayProb: 1, Reorder: true})
	m := e.Metrics()
	if m.Resizes != 1 || m.Recoveries != 0 {
		t.Fatalf("resizes=%d recoveries=%d; want 1/0 (delays respect the round boundary)",
			m.Resizes, m.Recoveries)
	}
}

func TestResizeShrinkKillOfSurvivor(t *testing.T) {
	// After a shrink the leaving workers no longer exist, so the fault that
	// matters is a survivor dying in the resync of the smaller membership.
	e, _ := runResizeFault(t, 4, 2, comm.FaultPlan{
		Kills: []comm.WorkerKill{{Worker: 1, Round: resyncRound(t, 4)}},
	})
	m := e.Metrics()
	if m.Resizes != 1 || m.Recoveries == 0 || m.Restarts == 0 {
		t.Fatalf("resizes=%d recoveries=%d restarts=%d; want 1/>0/>0",
			m.Resizes, m.Recoveries, m.Restarts)
	}
}

// wideProps is a multi-field property with a variable-length member, the
// codec-heavy corner of a cross-width restore.
type wideProps struct {
	A int32
	B float64
	L []int32
}

func wideOf(v graph.VID) wideProps {
	p := wideProps{A: int32(v) * 3, B: float64(v) / 7}
	for i := 0; i < int(v)%4; i++ {
		p.L = append(p.L, int32(v)+int32(i))
	}
	return p
}

func wideEq(a, b wideProps) bool {
	return a.A == b.A && a.B == b.B && fmt.Sprint(a.L) == fmt.Sprint(b.L)
}

// rewidthCase takes an image of a 2-worker engine whose vertex v holds of(v)
// and restores it into engines 1, 3 and 8 workers wide: every master and
// every resident mirror must come out equal to of(v).
func rewidthCase[V any](t *testing.T, cfg Config, of func(graph.VID) V, eq func(a, b V) bool) {
	t.Helper()
	g := graph.GenErdosRenyi(150, 600, 41)
	build := func(workers int) *Engine[V] {
		c := cfg
		c.Workers = workers
		e, err := NewEngine[V](g, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	src := build(2)
	src.VertexMap(src.All(), nil, func(v Vtx[V]) V { return of(v.ID) }, StepOpts{})
	img := src.encodeImage()
	for _, w := range []int{1, 3, 8} {
		e := build(w)
		if err := e.restoreImage(img); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		e.Gather(func(v graph.VID, val *V) {
			if !eq(*val, of(v)) {
				t.Fatalf("w=%d: vertex %d restored as %v, want %v", w, v, *val, of(v))
			}
		})
		if err := e.CheckMirrorCoherence(eq); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		// Under FullMirrors every vertex is resident everywhere, beyond the
		// necessary mirrors CheckMirrorCoherence walks.
		for _, wk := range e.workers {
			for v := 0; v < g.NumVertices(); v++ {
				if slot, ok := wk.st.Lookup(graph.VID(v)); ok && !eq(wk.cur[slot], of(graph.VID(v))) {
					t.Fatalf("w=%d: worker %d holds a stale copy of vertex %d", w, wk.id, v)
				}
			}
		}
		if e.Metrics().MigratedBytes == 0 {
			t.Fatalf("w=%d: no re-homed bytes recorded", w)
		}
	}
}

func TestRestoreImageAcrossWidths(t *testing.T) {
	for _, hash := range []bool{false, true} {
		for _, full := range []bool{false, true} {
			cfg := Config{UseHashPlacement: hash, FullMirrors: full}
			t.Run(fmt.Sprintf("hash=%v/full=%v/single", hash, full), func(t *testing.T) {
				rewidthCase(t, cfg,
					func(v graph.VID) bfsProps { return bfsProps{Dis: int32(v) + 5} },
					func(a, b bfsProps) bool { return a == b })
			})
			t.Run(fmt.Sprintf("hash=%v/full=%v/multi", hash, full), func(t *testing.T) {
				rewidthCase(t, cfg, wideOf, wideEq)
			})
		}
	}
}

// TestRestoreImageRejectsBadImageUntouched: a cross-width image is validated
// in full before any worker is written, so a rejected restore leaves the live
// state exactly as it was.
func TestRestoreImageRejectsBadImageUntouched(t *testing.T) {
	g := graph.GenErdosRenyi(150, 600, 41)
	seed := func(e *Engine[wideProps], of func(graph.VID) wideProps) {
		e.VertexMap(e.All(), nil, func(v Vtx[wideProps]) wideProps { return of(v.ID) }, StepOpts{})
	}
	src, err := NewEngine[wideProps](g, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	seed(src, wideOf)
	good := src.encodeImage()
	owned := src.place.LocalCount(0)

	small, err := NewEngine[wideProps](graph.GenPath(20), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()

	// reslot re-encodes worker 0's section keeping only its first n slots.
	reslot := func(n int) []byte {
		w := *src.workers[0]
		w.cur = w.cur[:n]
		return src.encodeWorkerSection(&w)
	}
	tailLen := 1 + 8*len(src.workers[0].frontier.Words()) // fwords uvarint + words
	bad := map[string]*CheckpointImage{
		"too few slots":         {Sections: [][]byte{reslot(owned - 1), good.Sections[1]}},
		"truncated mirror":      {Sections: [][]byte{good.Sections[0][:len(good.Sections[0])-tailLen-2], good.Sections[1]}},
		"missing frontier":      {Sections: [][]byte{good.Sections[0][:len(good.Sections[0])-tailLen], good.Sections[1]}},
		"absurd slot count":     {Sections: [][]byte{append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, good.Sections[0][2:]...), good.Sections[1]}},
		"no sections":           {},
		"another graph's image": small.encodeImage(),
	}
	sentinel := func(v graph.VID) wideProps { return wideProps{A: -1 - int32(v)} }
	for name, img := range bad {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine[wideProps](g, Config{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			seed(e, sentinel)
			if err := e.restoreImage(img); err == nil {
				t.Fatal("bad image restored")
			}
			for _, w := range e.workers {
				for slot := range w.cur {
					if want := sentinel(w.st.GID(slot)); !wideEq(w.cur[slot], want) {
						t.Fatalf("rejected restore wrote worker %d slot %d", w.id, slot)
					}
				}
			}
			if e.Metrics().MigratedBytes != 0 {
				t.Fatal("rejected restore counted re-homed bytes")
			}
		})
	}
}

func TestResizeOverTCP(t *testing.T) {
	g := graph.GenErdosRenyi(100, 400, 13)
	want := seqBFS(g, 0)
	tr, err := comm.NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, Config{Workers: 2, Transport: tr, CheckpointEvery: 2})
	got := resizeBFS(t, e, 0, func(step int) {
		if step == 1 {
			if err := e.Resize(4); err != nil {
				t.Fatal(err)
			}
		}
	})
	checkBFS(t, got, want, "tcp resize")
	if e.Workers() != 4 {
		t.Fatalf("workers=%d want 4", e.Workers())
	}
}
