package graph

import (
	"bytes"
	"testing"
)

// rowTestGraphs is the directed×weighted matrix the row tests read, plus a
// hub whose list overflows a small target block size and a graph of
// zero-degree vertices between edges.
func rowTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	gs := blockTestGraphs(t)
	hub := NewBuilder(300).Directed(true).Weighted(true)
	for v := 1; v < 300; v++ {
		hub.AddEdgeW(0, VID(v), float32(v))
		if v%5 == 0 {
			hub.AddEdgeW(VID(v), VID(v-1), 0.5)
		}
	}
	gs["hub"] = hub.Build()
	sparse := NewBuilder(400)
	for v := 0; v < 400; v += 9 {
		sparse.AddEdge(VID(v), VID((v*13+5)%400))
	}
	gs["zero-degree"] = sparse.Build()
	return gs
}

// TestBlockRowsMatchDecodedBlock reads every row of every block, in both
// stored directions, through a cache that has decoded nothing (GetRows), at
// the offsets the block carries, and holds each to the row a full decode of
// the block produces: weighted and unweighted, directed and undirected,
// zero-degree vertices, each block's last vertex and an oversize
// single-vertex hub block, at a small and the default target block size. The
// row reads admit nothing and decode exactly the graph's stored edges. A
// block whose bytes fail their CRC is an error on either path.
func TestBlockRowsMatchDecodedBlock(t *testing.T) {
	var zeroRows, lastRows, oversize int
	for name, g := range rowTestGraphs(t) {
		for _, blockSize := range []int{64, 0} {
			bg := openBlockBytes(t, g, blockSize)
			c := NewBlockCache(bg, int64(bg.EdgeBytes())*2+1<<20)
			c.BeginSparse()
			var eb EncodedBlock
			var adj []VID
			var ws []float32
			var misses, edges, encBytes uint64
			for d := range bg.blocks {
				for idx, mt := range bg.blocks[d] {
					if res, err := c.GetRows(d, idx, &eb); res != nil || err != nil {
						t.Fatalf("%s/%d: GetRows(%d, %d) on an empty cache = %v, %v; want a row read", name, blockSize, d, idx, res, err)
					}
					misses, edges, encBytes = misses+1, edges+uint64(mt.edges), encBytes+uint64(mt.encLen)
					dec, err := bg.ReadBlock(d, idx)
					if err != nil {
						t.Fatalf("%s/%d: ReadBlock(%d, %d): %v", name, blockSize, d, idx, err)
					}
					if mt.nv == 1 && blockSize > 0 && int(mt.encLen)-4 > blockSize {
						oversize++
					}
					for v := dec.First(); dec.Contains(v); v++ {
						if !eb.Contains(v) {
							t.Fatalf("%s/%d: encoded block %d/%d does not contain %d", name, blockSize, d, idx, v)
						}
						wantAdj, wantW := dec.Adj(v)
						if adj, ws, err = eb.Row(v, adj, ws); err != nil {
							t.Fatalf("%s/%d: Row(%d) of block %d/%d: %v", name, blockSize, v, d, idx, err)
						}
						if !equalVIDs(adj, wantAdj) || len(ws) != len(wantW) {
							t.Fatalf("%s/%d: Row(%d) = %v (%d weights), want %v (%d weights)",
								name, blockSize, v, adj, len(ws), wantAdj, len(wantW))
						}
						for i := range ws {
							if ws[i] != wantW[i] {
								t.Fatalf("%s/%d: Row(%d) weight %d = %v, want %v", name, blockSize, v, i, ws[i], wantW[i])
							}
						}
						if bg.Weighted() != (ws != nil) && len(adj) > 0 {
							t.Fatalf("%s/%d: Row(%d) weight presence disagrees with the header", name, blockSize, v)
						}
						if len(adj) == 0 {
							zeroRows++
						}
						if !dec.Contains(v + 1) {
							lastRows++
						}
					}
					if eb.Contains(dec.First()+VID(mt.nv)) || (dec.First() > 0 && eb.Contains(dec.First()-1)) {
						t.Fatalf("%s/%d: encoded block %d/%d contains a vertex outside it", name, blockSize, d, idx)
					}
				}
			}
			c.ReleaseRows(&eb)
			if st := c.Stats(); st.Hits != 0 || st.Misses != misses || st.DecodedEdges != edges ||
				st.BytesSparse != encBytes || st.BytesDense != 0 {
				t.Fatalf("%s/%d: row reads counted %+v; want %d misses of %d bytes decoding %d edges", name, blockSize, st, misses, encBytes, edges)
			}
			if c.Bytes() != 0 || eb.Contains(0) {
				t.Fatalf("%s/%d: row reads admitted %d bytes or left the encoded block held", name, blockSize, c.Bytes())
			}
		}
	}
	if zeroRows == 0 || lastRows == 0 || oversize == 0 {
		t.Fatalf("coverage: %d zero-degree rows, %d last rows, %d oversize blocks; want each > 0", zeroRows, lastRows, oversize)
	}

	g := WithRandomWeights(GenRandomDirected(300, 2400, 9), 4)
	buf := EncodeBlockFile(g, 256)
	bg := openBlockBytes(t, g, 256)
	const last = 2
	mt := bg.blocks[BlockIn][last]
	bad := bytes.Clone(buf)
	bad[bg.payloadStart+int64(mt.off)] ^= 0x40 // the block's first encoded byte
	bbg, err := OpenBlockReader(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("OpenBlockReader: %v", err)
	}
	var eb EncodedBlock
	if _, err := NewBlockCache(bbg, 1<<20).GetRows(BlockIn, last, &eb); err == nil || eb.nv != 0 {
		t.Fatalf("a row read of a block with a bad CRC: err %v, holds %d vertices", err, eb.nv)
	}
	if _, err := NewBlockCache(bbg, 1<<20).Get(BlockIn, last); err == nil {
		t.Fatalf("Get on a block with a bad CRC succeeded")
	}
}
