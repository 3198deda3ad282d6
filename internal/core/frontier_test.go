package core

import (
	"math/rand"
	"testing"

	"flash/graph"
)

// encodeDecodeRoundTrip pushes a bit pattern through the frontier codec and
// returns the decoded words.
func frontierRoundTrip(t *testing.T, words []uint64) []uint64 {
	t.Helper()
	lo, hi := 0, len(words)
	for lo < hi && words[lo] == 0 {
		lo++
	}
	for hi > lo && words[hi-1] == 0 {
		hi--
	}
	got := make([]uint64, len(words))
	if hi == lo {
		return got
	}
	frame := encodeFrontier(nil, words, lo, hi)
	if err := decodeFrontier(frame, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestFrontierCodecRoundTrip(t *testing.T) {
	cases := map[string][]uint64{
		"empty":      make([]uint64, 8),
		"single":     {0, 1 << 17, 0, 0},
		"full":       {^uint64(0), ^uint64(0), ^uint64(0)},
		"sparse":     {1, 0, 0, 0, 0, 0, 0, 1 << 63},
		"span_start": {^uint64(0), 0, 0, 0},
		"span_end":   {0, 0, 0, ^uint64(0)},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		words := make([]uint64, 16)
		for j := 0; j < 1+i*10; j++ {
			words[rng.Intn(len(words))] |= 1 << uint(rng.Intn(64))
		}
		cases[string(rune('a'+i))+"_random"] = words
	}
	for name, words := range cases {
		got := frontierRoundTrip(t, words)
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("%s: word %d = %#x, want %#x", name, i, got[i], words[i])
			}
		}
	}
}

func TestFrontierCodecPicksSmaller(t *testing.T) {
	// A lone member in a wide span must be shipped as a sparse list...
	words := make([]uint64, 64)
	words[0], words[63] = 1, 1<<63
	frame := encodeFrontier(nil, words, 0, 64)
	if frame[0] != frontierSparse {
		t.Fatalf("2 members over 64 words encoded dense (%d bytes)", len(frame))
	}
	if len(frame) >= 5+8*64 {
		t.Fatalf("sparse frame not smaller than dense: %d bytes", len(frame))
	}
	// ...and a saturated span must stay dense.
	for i := range words {
		words[i] = ^uint64(0)
	}
	frame = encodeFrontier(nil, words, 0, 64)
	if frame[0] != frontierDense {
		t.Fatal("full bitmap encoded sparse")
	}
	if len(frame) != 5+8*64 {
		t.Fatalf("dense frame is %d bytes, want %d", len(frame), 5+8*64)
	}
}

func TestFrontierDecodeRejectsCorruptFrames(t *testing.T) {
	// Decode may OR bits in before detecting later corruption — the superstep
	// fails wholesale on error — so only the error itself is asserted here.
	for name, frame := range map[string][]byte{
		"empty":            {},
		"unknown_tag":      {0x7f, 1, 2, 3},
		"dense_truncated":  {frontierDense, 1, 0},
		"dense_misaligned": {frontierDense, 0, 0, 0, 0, 1, 2, 3},
		"dense_oob_offset": {frontierDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8},
		"sparse_truncated": {frontierSparse, 3, 5},
		"sparse_oob_vid":   {frontierSparse, 1, 0xff, 0xff, 0x7f},
		"sparse_trailing":  {frontierSparse, 1, 5, 9, 9},
		"sparse_bad_count": {frontierSparse, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if err := decodeFrontier(frame, make([]uint64, 4)); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
}

func FuzzFrontierDecode(f *testing.F) {
	full := make([]uint64, 4)
	full[1] = 0xdeadbeef
	f.Add(encodeFrontier(nil, full, 1, 2))
	f.Add([]byte{frontierSparse, 3, 1, 1, 1})
	f.Add([]byte{frontierDense, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, 8)
		// Must never panic or write out of bounds, whatever the input.
		_ = decodeFrontier(data, words)
	})
}

// TestSparseFrontierPullStep drives a real pull superstep over a tiny
// frontier across workers, covering the sparse frame path end-to-end (every
// worker decodes the others' sparse lists into its global bitmap).
func TestSparseFrontierPullStep(t *testing.T) {
	g := graph.GenErdosRenyi(256, 1024, 3)
	for _, workers := range []int{2, 4} {
		e := mustEngine(t, g, Config{Workers: workers})
		e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
			if v.ID == 0 {
				return bfsProps{}
			}
			return bfsProps{Dis: inf}
		}, StepOpts{})
		u := e.FromIDs(0)
		// R == nil forces pull mode regardless of |U|: a one-vertex frontier
		// ships as a sparse vid list.
		u = e.EdgeMap(u, BaseE[bfsProps](),
			Weighted(func(s, d Vtx[bfsProps], _ float32) bool { return d.Val.Dis > s.Val.Dis+1 },
				func(s, d Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
			nil, nil, StepOpts{})
		for _, v := range e.IDs(u) {
			if e.Get(v).Dis != 1 {
				t.Fatalf("w=%d: vertex %d at distance %d after one pull step", workers, v, e.Get(v).Dis)
			}
		}
		e.Close()
	}
}
