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

// payloadSeed is one FuzzDecodeBlockPayload input: a block's encoded bytes
// (rows, then one u32 row offset per vertex), the degree of each vertex it
// covers, the vid universe, and whether raw float32 weights follow each
// vertex's neighbors.
type payloadSeed struct {
	name     string
	payload  []byte
	degs     []byte
	n        uint32
	weighted bool
}

// encodeRows encodes one row per vertex as packBlocks does, returning the
// rows and each row's offset in them.
func encodeRows(adjs [][]VID, wss [][]float32) ([]byte, []uint32) {
	var rows []byte
	offs := make([]uint32, len(adjs))
	for v, adj := range adjs {
		offs[v] = uint32(len(rows))
		var ws []float32
		if wss != nil {
			ws = wss[v]
		}
		rows = appendVertexAdj(rows, adj, ws)
	}
	return rows, offs
}

// withOffsets returns rows followed by the given row offsets: a block's
// encoded bytes.
func withOffsets(rows []byte, offs ...uint32) []byte {
	out := bytes.Clone(rows)
	for _, o := range offs {
		out = binary.LittleEndian.AppendUint32(out, o)
	}
	return out
}

// payloadFuzzSeeds are the framings the two-byte fast path must not treat
// differently from binary.Uvarint: overlong encodings, gaps of three, five
// and ten bytes, a varint that overflows 64 bits, blocks with and without
// weights, and a valid weighted block's rows cut short at every offset of
// their tail; plus the hostile offset suffixes: an offset past the rows, a
// row that does not end at the next offset, and bytes too short to hold the
// offsets.
func payloadFuzzSeeds() []payloadSeed {
	rows, offs := encodeRows([][]VID{{3, 4, 200, 20000, 20001}, nil, {0, 70000}}, nil)
	valid := withOffsets(rows, offs...)
	rowsW, offsW := encodeRows([][]VID{{1, 130, 131}, {9}}, [][]float32{{0.5, -1, 3e9}, {7}})
	validW := withOffsets(rowsW, offsW...)
	seeds := []payloadSeed{
		{"unweighted", valid, []byte{5, 0, 2}, 70001, false},
		{"weighted", validW, []byte{3, 1}, 132, true},
		{"overlong", withOffsets([]byte{0x05, 0x80, 0x00, 0x81, 0x00}, 0), []byte{3}, 10, false},
		{"overlong-first", withOffsets([]byte{0x80, 0x00, 0x01}, 0), []byte{2}, 10, false},
		{"varint-3byte", withOffsets([]byte{0x01, 0x80, 0x80, 0x01, 0x01}, 0), []byte{3}, 1 << 20, false},
		{"varint-5byte", withOffsets([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01}, 0), []byte{3}, 1 << 20, false},
		{"varint-10byte", withOffsets([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x01}, 0), []byte{3}, 1 << 20, false},
		{"overflow-64bit", withOffsets([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01}, 0), []byte{3}, 1 << 20, false},
		{"vid-out-of-range", withOffsets([]byte{0x05, 0x7f, 0x01}, 0), []byte{3}, 132, false},
		{"trailing-byte", withOffsets(append(bytes.Clone(rows), 0x00), offs...), []byte{5, 0, 2}, 70001, false},
		{"offset-past-rows", withOffsets(rowsW, 0, uint32(len(rowsW))+1), []byte{3, 1}, 132, true},
		{"row-misses-next-offset", withOffsets(rows, offs[0], offs[1]-1, offs[2]), []byte{5, 0, 2}, 70001, false},
		{"offsets-short", validW[len(validW)-7:], []byte{3, 1}, 132, true},
	}
	for cut := 1; cut < len(rowsW); cut++ {
		seeds = append(seeds, payloadSeed{fmt.Sprintf("truncated-tail-%02d", cut), withOffsets(rowsW[:len(rowsW)-cut], offsW...), []byte{3, 1}, 132, true})
	}
	return seeds
}

// refDecodePayload is the decoder the block format was specified by: the
// last 4·len(degs) bytes are the row offsets, and before them one
// binary.Uvarint per neighbor, an absolute value then gaps, raw weights after
// each vertex, each row starting at its offset and every row byte consumed.
// decodeBlock must agree with it on every input.
func refDecodePayload(data []byte, degs []int, n uint64, weighted bool) (adj []VID, ws []uint32, ok bool) {
	end := len(data) - 4*len(degs)
	if end < 0 {
		return nil, nil, false
	}
	rows := data[:end]
	pos := 0
	for v, deg := range degs {
		if binary.LittleEndian.Uint32(data[end+4*v:]) != uint32(pos) {
			return nil, nil, false
		}
		prev := uint64(0)
		for i := 0; i < deg; i++ {
			x, sz := binary.Uvarint(rows[pos:])
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
			if pos+4*deg > len(rows) {
				return nil, nil, false
			}
			for i := 0; i < deg; i++ {
				ws = append(ws, binary.LittleEndian.Uint32(rows[pos+4*i:]))
			}
			pos += 4 * deg
		}
	}
	return adj, ws, pos == len(rows)
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

// FuzzDecodeBlockRows holds single-row reads to the full decode on hostile
// payloads, reading each row at the offset the payload stores. When
// decodeBlock accepts a payload, every row read equals that vertex's row of
// the full decode. When it rejects one whose bytes hold the offsets, row
// reads — at offsets past the rows or mid-row included — never panic, and a
// row read without error has the vertex's degree and only in-range vids.
func FuzzDecodeBlockRows(f *testing.F) {
	for _, s := range payloadFuzzSeeds() {
		f.Add(s.payload, s.degs, s.n, s.weighted)
	}
	f.Fuzz(func(t *testing.T, payload, degBytes []byte, n uint32, weighted bool) {
		if len(payload) > 1<<12 || len(degBytes) == 0 || len(degBytes) > 64 {
			return
		}
		off := make([]int64, len(degBytes)+1)
		for i, b := range degBytes {
			off[i+1] = off[i] + int64(b%16)
		}
		if int(n) < len(degBytes) {
			n = uint32(len(degBytes))
		}
		nv := len(degBytes)
		edges := int(off[nv])
		bg := &BlockGraph{n: int(n), weighted: weighted, outOff: off, inOff: off}
		mt := blockMeta{nv: uint32(nv), edges: uint32(edges), encLen: uint32(len(payload))}
		b := new(DecodedBlock)
		b.alloc(edges, weighted)
		err := bg.decodeBlock(BlockOut, mt, payload, b)
		if _, _, ok := splitBlock(payload, nv); !ok {
			if err == nil {
				t.Fatalf("decodeBlock accepted %d bytes for %d row offsets", len(payload), nv)
			}
			return // the block table refuses such a block before any row read
		}
		eb := EncodedBlock{bg: bg, nv: nv, data: payload}
		var adj []VID
		var ws []float32
		for v := VID(0); int(v) < nv; v++ {
			var rerr error
			adj, ws, rerr = eb.Row(v, adj, ws)
			if err == nil {
				wantAdj, wantW := b.Adj(v)
				if rerr != nil || !equalVIDs(adj, wantAdj) || len(ws) != len(wantW) {
					t.Fatalf("vertex %d: row %v (%d weights, err %v), full decode %v (%d weights)",
						v, adj, len(ws), rerr, wantAdj, len(wantW))
				}
				for i := range ws {
					if math.Float32bits(ws[i]) != math.Float32bits(wantW[i]) {
						t.Fatalf("vertex %d weight %d = %#x, full decode %#x", v, i, math.Float32bits(ws[i]), math.Float32bits(wantW[i]))
					}
				}
				continue
			}
			if rerr != nil {
				continue
			}
			if len(adj) != int(off[v+1]-off[v]) || (ws != nil) != weighted && len(adj) > 0 {
				t.Fatalf("vertex %d: row of %d neighbors (weights %v), want %d (weights %v)", v, len(adj), ws != nil, off[v+1]-off[v], weighted)
			}
			for _, d := range adj {
				if d >= VID(n) {
					t.Fatalf("vertex %d: row holds vid %d >= n = %d", v, d, n)
				}
			}
		}
	})
}
