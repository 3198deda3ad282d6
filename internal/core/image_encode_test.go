package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"flash/graph"
	"flash/internal/comm"
)

// bcProps is algo's BC property: its codec is fixed-width but padded (4
// bytes after Level), so its images take the per-value encode.
type bcProps struct {
	Level int32
	Num   float64
	B     float64
}

// runBC runs Brandes' forward and backward phases from root (algo's BC on
// the core API).
func runBC(e *Engine[bcProps], root graph.VID) {
	e.VertexMap(e.All(), nil, func(v Vtx[bcProps]) bcProps {
		if v.ID == root {
			return bcProps{Level: 0, Num: 1}
		}
		return bcProps{Level: -1}
	}, StepOpts{})
	var levels []*Subset
	for u, lvl := e.FromIDs(root), int32(1); u.Size() != 0; lvl++ {
		levels = append(levels, u)
		u = e.EdgeMap(u, BaseE[bcProps](), Weighted(nil,
			func(s, d Vtx[bcProps], _ float32) bcProps {
				nv := *d.Val
				nv.Num += s.Val.Num
				return nv
			}),
			func(d Vtx[bcProps]) bool { return d.Val.Level == -1 },
			func(t, cur bcProps) bcProps {
				cur.Num += t.Num
				return cur
			}, StepOpts{})
		u = e.VertexMap(u, nil, func(v Vtx[bcProps]) bcProps {
			nv := *v.Val
			nv.Level = lvl
			return nv
		}, StepOpts{})
	}
	for i := len(levels) - 1; i > 0; i-- {
		e.EdgeMap(levels[i], ReverseE(BaseE[bcProps]()),
			Weighted(func(s, d Vtx[bcProps], _ float32) bool { return d.Val.Level == s.Val.Level-1 },
				func(s, d Vtx[bcProps], _ float32) bcProps {
					nv := *d.Val
					nv.B += nv.Num / s.Val.Num * (1 + s.Val.B)
					return nv
				}), nil,
			func(t, cur bcProps) bcProps {
				cur.B += t.B
				return cur
			}, StepOpts{})
	}
}

// runCC is label-propagation CC: each vertex pushes its label along its
// out-edges until no label falls.
func runCC(e *Engine[ccProps]) {
	u := e.VertexMap(e.All(), nil, func(v Vtx[ccProps]) ccProps { return ccProps{CC: uint32(v.ID)} }, StepOpts{})
	for u.Size() > 0 {
		u = e.EdgeMap(u, BaseE[ccProps](),
			Weighted(func(s, d Vtx[ccProps], _ float32) bool { return s.Val.CC < d.Val.CC },
				func(s, d Vtx[ccProps], _ float32) ccProps { return ccProps{CC: min(s.Val.CC, d.Val.CC)} }),
			nil,
			func(t, cur ccProps) ccProps { return ccProps{CC: min(t.CC, cur.CC)} }, StepOpts{})
	}
}

// refSection is the per-value encoding of worker w's section that
// encodeWorkerSection must reproduce byte for byte.
func refSection[V any](e *Engine[V], w *worker[V]) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(w.cur)))
	for i := range w.cur {
		buf = e.codec.Append(buf, &w.cur[i])
	}
	fwords := w.frontier.Words()
	buf = binary.AppendUvarint(buf, uint64(len(fwords)))
	for _, word := range fwords {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// refStore compares every image saved to it with the per-value reference
// encode of the engine's state at the time of the save.
type refStore[V any] struct {
	MemStore
	t      *testing.T
	e      *Engine[V]
	images int
}

func (s *refStore[V]) Save(img *CheckpointImage) error {
	s.images++
	if len(img.Sections) != len(s.e.workers) {
		s.t.Fatalf("image %d has %d sections for %d workers", img.Seq, len(img.Sections), len(s.e.workers))
	}
	for i, w := range s.e.workers {
		if want := refSection(s.e, w); !bytes.Equal(img.Sections[i], want) {
			s.t.Fatalf("image %d, worker %d: section differs from the per-value encode", img.Seq, i)
		}
	}
	return s.MemStore.Save(img)
}

// imagesMatchReference runs program on a checkpointing engine of each width
// and placement, checking every image it takes against refSection.
func imagesMatchReference[V any](t *testing.T, g *graph.Graph, program func(e *Engine[V])) {
	for _, hash := range []bool{false, true} {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("hash=%v/w%d", hash, w), func(t *testing.T) {
				store := &refStore[V]{t: t}
				e, err := NewEngine[V](g, Config{Workers: w, UseHashPlacement: hash, CheckpointEvery: 2, Store: store})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				store.e = e
				if _, err := e.Run(func() error { program(e); return nil }); err != nil {
					t.Fatal(err)
				}
				if store.images < 2 {
					t.Fatalf("%d images taken, want at least 2", store.images)
				}
			})
		}
	}
}

// TestImagesMatchPerValueEncode: BFS, CC and PageRank properties (flat:
// encoded in one copy) and BC's (padded: encoded value by value) give images
// byte-identical to a per-value encode, at every width and placement.
func TestImagesMatchPerValueEncode(t *testing.T) {
	g := graph.GenErdosRenyi(300, 1500, 5)
	t.Run("bfs", func(t *testing.T) {
		imagesMatchReference(t, g, func(e *Engine[bfsProps]) { runBFS(e, 0, Auto) })
	})
	t.Run("cc", func(t *testing.T) {
		imagesMatchReference(t, g, runCC)
	})
	t.Run("pagerank", func(t *testing.T) {
		imagesMatchReference(t, g, func(e *Engine[rankProps]) { pullRank(e, 3, nil) })
	})
	t.Run("bc", func(t *testing.T) {
		imagesMatchReference(t, g, func(e *Engine[bcProps]) { runBC(e, 0) })
	})
}

// TestEncodeImageAllocs: under a fixed-width codec, flat or padded, each
// section is allocated at its exact size.
func TestEncodeImageAllocs(t *testing.T) {
	g := graph.GenGrid(40, 40, 0, 1)
	for _, w := range []int{1, 2, 4} {
		bfs, err := NewEngine[bfsProps](g, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		defer bfs.Close()
		runBFS(bfs, 0, Auto)
		bc, err := NewEngine[bcProps](g, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		defer bc.Close()
		runBC(bc, 0)
		for name, img := range map[string]*CheckpointImage{"bfs": bfs.encodeImage(), "bc": bc.encodeImage()} {
			for i, sect := range img.Sections {
				if cap(sect) != len(sect) {
					t.Errorf("%s w%d: section %d has cap %d for %d bytes", name, w, i, cap(sect), len(sect))
				}
			}
		}
	}
	if _, ok := comm.FixedSize(comm.CodecFor[bcProps]()); !ok {
		t.Fatal("bcProps has no fixed-width codec")
	}
}
