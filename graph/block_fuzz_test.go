package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// fuzzSeedImage builds the valid FLASHBLK image the seed corpus variants are
// derived from: small, directed, weighted, multi-block.
func fuzzSeedImage() []byte {
	b := NewBuilder(24).Directed(true).Weighted(true).Name("fuzz")
	for v := 0; v < 23; v++ {
		b.AddEdgeW(VID(v), VID(v+1), float32(v))
		b.AddEdgeW(VID(v), VID((v*5+2)%24), 0.5)
	}
	return EncodeBlockFile(b.Build(), 64)
}

// fuzzOversizeImage packs a hub vertex whose adjacency exceeds the one-byte
// target block size, exercising the oversize single-vertex block path.
func fuzzOversizeImage() []byte {
	b := NewBuilder(64).Directed(true)
	for v := 1; v < 64; v++ {
		b.AddEdge(0, VID(v))
	}
	return EncodeBlockFile(b.Build(), 1)
}

// FuzzDecodeBlockFile throws arbitrary bytes at the FLASHBLK reader: opening
// must never panic or over-allocate, and any image the reader accepts must
// decode every block without a panic — either a valid CSR fragment or a clean
// error. The checked-in corpus under testdata/fuzz seeds the interesting
// regions: a pristine file, a truncated tail, a bit-flipped block CRC, and an
// oversize single-vertex block.
func FuzzDecodeBlockFile(f *testing.F) {
	valid := fuzzSeedImage()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10
	f.Add(flipped)
	f.Add(fuzzOversizeImage())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		bg, err := OpenBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for _, dir := range []int{BlockOut, BlockIn} {
			for i := 0; i < bg.NumBlocks(dir); i++ {
				dec, err := bg.ReadBlock(dir, i)
				if err != nil {
					continue // CRC or framing damage, rejected cleanly
				}
				for v := dec.First(); dec.Contains(v); v++ {
					adj, ws := dec.Adj(v)
					for _, d := range adj {
						if int(d) >= bg.NumVertices() {
							t.Fatalf("decoded vid %d out of range", d)
						}
					}
					if bg.Weighted() != (ws != nil) && len(adj) > 0 {
						t.Fatalf("weight slice presence disagrees with header flag")
					}
				}
			}
		}
	})
}

// payloadSeed is one FuzzDecodeBlockPayload input: a block payload, the
// degree of each vertex it covers, the vid universe, and whether raw float32
// weights follow each vertex's neighbors.
type payloadSeed struct {
	name     string
	payload  []byte
	degs     []byte
	n        uint32
	weighted bool
}

// payloadFuzzSeeds are the framings the two-byte fast path must not treat
// differently from binary.Uvarint: overlong encodings, gaps of three, five
// and ten bytes, a varint that overflows 64 bits, blocks with and without
// weights, and a valid weighted block cut short at every offset of its tail.
func payloadFuzzSeeds() []payloadSeed {
	valid := appendVertexAdj(nil, []VID{3, 4, 200, 20000, 20001}, nil)
	valid = appendVertexAdj(valid, nil, nil)
	valid = appendVertexAdj(valid, []VID{0, 70000}, nil)
	validW := appendVertexAdj(nil, []VID{1, 130, 131}, []float32{0.5, -1, 3e9})
	validW = appendVertexAdj(validW, []VID{9}, []float32{7})
	seeds := []payloadSeed{
		{"unweighted", valid, []byte{5, 0, 2}, 70001, false},
		{"weighted", validW, []byte{3, 1}, 132, true},
		{"overlong", []byte{0x05, 0x80, 0x00, 0x81, 0x00}, []byte{3}, 10, false},
		{"overlong-first", []byte{0x80, 0x00, 0x01}, []byte{2}, 10, false},
		{"varint-3byte", []byte{0x01, 0x80, 0x80, 0x01, 0x01}, []byte{3}, 1 << 20, false},
		{"varint-5byte", []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01}, []byte{3}, 1 << 20, false},
		{"varint-10byte", []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01}, []byte{3}, 1 << 20, false},
		{"overflow-64bit", []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01}, []byte{3}, 1 << 20, false},
		{"vid-out-of-range", []byte{0x05, 0x7f, 0x01}, []byte{3}, 132, false},
		{"trailing-byte", append(append([]byte(nil), valid...), 0x00), []byte{5, 0, 2}, 70001, false},
	}
	for cut := 1; cut < len(validW); cut++ {
		seeds = append(seeds, payloadSeed{fmt.Sprintf("truncated-tail-%02d", cut), validW[:len(validW)-cut], []byte{3, 1}, 132, true})
	}
	return seeds
}

// refDecodePayload is the decoder the block format was specified by: one
// binary.Uvarint per neighbor, an absolute value then gaps, raw weights after
// each vertex, every byte consumed. decodeBlock must agree with it on every
// input.
func refDecodePayload(data []byte, degs []int, n uint64, weighted bool) (adj []VID, ws []uint32, ok bool) {
	pos := 0
	for _, deg := range degs {
		prev := uint64(0)
		for i := 0; i < deg; i++ {
			x, sz := binary.Uvarint(data[pos:])
			if sz <= 0 {
				return nil, nil, false
			}
			pos += sz
			if prev += x; prev >= n {
				return nil, nil, false
			}
			adj = append(adj, VID(prev))
		}
		if weighted {
			if pos+4*deg > len(data) {
				return nil, nil, false
			}
			for i := 0; i < deg; i++ {
				ws = append(ws, binary.LittleEndian.Uint32(data[pos+4*i:]))
			}
			pos += 4 * deg
		}
	}
	return adj, ws, pos == len(data)
}

// FuzzDecodeBlockPayload feeds hostile payload bytes straight to decodeBlock —
// past the per-block CRC that keeps FuzzDecodeBlockFile's mutations from ever
// reaching it — decoding into a poisoned arena larger than the block, as the
// cache does, and holds the result to refDecodePayload: same accept/reject,
// same adjacency and weights, never a panic or an out-of-range vid.
func FuzzDecodeBlockPayload(f *testing.F) {
	for _, s := range payloadFuzzSeeds() {
		f.Add(s.payload, s.degs, s.n, s.weighted)
	}
	f.Fuzz(func(t *testing.T, payload, degBytes []byte, n uint32, weighted bool) {
		if len(payload) > 1<<12 || len(degBytes) == 0 || len(degBytes) > 64 {
			return
		}
		degs := make([]int, len(degBytes))
		off := make([]int64, len(degBytes)+1)
		for i, b := range degBytes {
			degs[i] = int(b % 16)
			off[i+1] = off[i] + int64(degs[i])
		}
		if int(n) < len(degs) {
			n = uint32(len(degs))
		}
		edges := int(off[len(degs)])
		bg := &BlockGraph{n: int(n), weighted: weighted, outOff: off, inOff: off}
		mt := blockMeta{nv: uint32(len(degs)), edges: uint32(edges), encLen: uint32(len(payload))}
		b := new(DecodedBlock)
		b.alloc(edges+3, weighted)
		for i := range b.adj {
			b.adj[i] = ^VID(0)
		}

		wantAdj, wantW, ok := refDecodePayload(payload, degs, uint64(n), weighted)
		err := bg.decodeBlock(BlockOut, mt, payload, b)
		if (err == nil) != ok {
			t.Fatalf("decodeBlock err = %v, reference accepts = %v", err, ok)
		}
		if err != nil {
			return
		}
		k := 0
		for v := range degs {
			adj, ws := b.Adj(VID(v))
			if len(adj) != degs[v] || weighted != (ws != nil) {
				t.Fatalf("vertex %d: %d neighbors (weights %v), want %d (weights %v)", v, len(adj), ws != nil, degs[v], weighted)
			}
			for i, d := range adj {
				if d != wantAdj[k] || d >= VID(n) {
					t.Fatalf("vertex %d neighbor %d = %d, want %d (n = %d)", v, i, d, wantAdj[k], n)
				}
				if weighted && math.Float32bits(ws[i]) != wantW[k] {
					t.Fatalf("vertex %d weight %d = %#x, want %#x", v, i, math.Float32bits(ws[i]), wantW[k])
				}
				k++
			}
		}
	})
}
