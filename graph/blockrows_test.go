package graph

import (
	"bytes"
	"fmt"
	"sync"
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
// stored directions, at the offsets the block's full decode in a cache
// recorded, and
// holds each to the row the full decode produced: weighted and unweighted,
// directed and undirected, zero-degree vertices, each block's last vertex
// and an oversize single-vertex hub block, at a small and the default target
// block size.
func TestBlockRowsMatchDecodedBlock(t *testing.T) {
	var zeroRows, lastRows, oversize int
	for name, g := range rowTestGraphs(t) {
		for _, blockSize := range []int{64, 0} {
			bg := openBlockBytes(t, g, blockSize)
			c := NewBlockCache(bg, int64(bg.EdgeBytes())*2+1<<20)
			var eb EncodedBlock
			var adj []VID
			var ws []float32
			for d := range bg.blocks {
				for idx, mt := range bg.blocks[d] {
					dec := getRelease(t, c, d, idx) // resident under the budget

					if err := bg.readRows(d, idx, &eb); err != nil {
						t.Fatalf("%s/%d: readRows(%d, %d) after a full decode: %v", name, blockSize, d, idx, err)
					}
					if mt.nv == 1 && blockSize > 0 && int(mt.encLen) > blockSize {
						oversize++
					}
					for v := dec.First(); dec.Contains(v); v++ {
						if !eb.Contains(v) {
							t.Fatalf("%s/%d: encoded block %d/%d does not contain %d", name, blockSize, d, idx, v)
						}
						wantAdj, wantW := dec.Adj(v)
						var err error
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
		}
	}
	if zeroRows == 0 || lastRows == 0 || oversize == 0 {
		t.Fatalf("coverage: %d zero-degree rows, %d last rows, %d oversize blocks; want each > 0", zeroRows, lastRows, oversize)
	}
}

// TestBlockRowsRefusedUntilFullDecode: a block's rows may not be read before
// the block passed one full decode in a cache over this BlockGraph — readRows
// refuses it, also after ReadBlock decoded it, and a cache's GetRows decodes
// and admits it whole instead. From then on a
// cache that does not hold the block reads only its encoded bytes, decodes
// just the rows asked for and admits nothing, in this cache and in one
// opened later over the same graph. A block whose bytes fail their CRC is an
// error on either path.
func TestBlockRowsRefusedUntilFullDecode(t *testing.T) {
	g := WithRandomWeights(GenRandomDirected(300, 2400, 9), 4)
	bg := openBlockBytes(t, g, 256)
	nb := bg.NumBlocks(BlockOut)
	if nb < 4 {
		t.Fatalf("want several blocks, got %d", nb)
	}
	var eb EncodedBlock
	for idx := 0; idx < nb; idx++ {
		if _, err := bg.ReadBlock(BlockOut, idx); err != nil {
			t.Fatalf("ReadBlock(%d): %v", idx, err)
		}
		if err := bg.readRows(BlockOut, idx, &eb); err == nil || eb.nv != 0 {
			t.Fatalf("readRows(%d) before a cache decoded the block: err %v, holds %d vertices", idx, err, eb.nv)
		}
	}

	c := NewBlockCache(bg, 1<<20)
	c.BeginSparse(nil, nil)
	dec, err := c.GetRows(BlockOut, 1, &eb)
	if err != nil || dec == nil {
		t.Fatalf("GetRows on a never-decoded block = %v, %v; want the block decoded and pinned", dec, err)
	}
	c.Release(dec)
	mt := bg.blocks[BlockOut][1]
	if st := c.Stats(); st.Misses != 1 || st.DecodedEdges != uint64(mt.edges) {
		t.Fatalf("first GetRows: %+v; want 1 miss decoding the block's %d edges", st, mt.edges)
	}
	if dec, err = c.GetRows(BlockOut, 1, &eb); err != nil || dec == nil {
		t.Fatalf("GetRows on a resident block = %v, %v; want a hit", dec, err)
	}
	c.Release(dec)

	fresh := NewBlockCache(bg, 1<<20)
	fresh.BeginSparse(nil, nil)
	if dec, err = fresh.GetRows(BlockOut, 1, &eb); err != nil || dec != nil {
		t.Fatalf("GetRows on a validated, non-resident block = %v, %v; want nil, nil", dec, err)
	}
	v := mt.first + VID(mt.nv) - 1
	if _, _, err := eb.Row(v, nil, nil); err != nil {
		t.Fatalf("Row(%d): %v", v, err)
	}
	fresh.ReleaseRows(&eb)
	if st := fresh.Stats(); st.Misses != 1 || st.Hits != 0 || st.DecodedEdges != uint64(g.OutDegree(v)) ||
		st.BytesSparse != uint64(mt.encLen) {
		t.Fatalf("row read: %+v; want 1 miss of %d bytes decoding %d edges", st, mt.encLen, g.OutDegree(v))
	}
	if fresh.Bytes() != 0 || eb.Contains(v) {
		t.Fatalf("row read admitted %d bytes or left the encoded block held", fresh.Bytes())
	}

	buf := EncodeBlockFile(g, 256)
	bad := bytes.Clone(buf)
	const last = 2
	mt = bg.blocks[BlockIn][last]
	bad[bg.payloadStart+int64(mt.off)] ^= 0x40 // the block's first encoded byte
	bbg, err := OpenBlockReader(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("OpenBlockReader: %v", err)
	}
	bc := NewBlockCache(bbg, 1<<20)
	if _, err := bc.GetRows(BlockIn, last, &eb); err == nil {
		t.Fatalf("GetRows on a block with a bad CRC succeeded")
	}
	bbg.rowState[BlockIn][last].Store(rowsReady) // as if an earlier read had validated it
	if _, err := bc.GetRows(BlockIn, last, &eb); err == nil || eb.nv != 0 {
		t.Fatalf("a row read of a block with a bad CRC: err %v, holds %d vertices", err, eb.nv)
	}
}

// TestBlockRowsRecordConcurrently decodes every block from several caches
// over one BlockGraph at once, each mixing Get and GetRows: the first full
// decode of each block records and publishes its row offsets while the
// others read rows through them. The caches are opened before and closed
// after the readers run, so nothing but a block's own state orders a
// reader after the decode that recorded its offsets. Run under -race.
func TestBlockRowsRecordConcurrently(t *testing.T) {
	g := GenRMAT(1<<13, 1<<16, 17)
	bg := openBlockBytes(t, g, 256)
	const readers = 4
	caches := make([]*BlockCache, readers)
	for r := range caches {
		caches[r] = NewBlockCache(bg, 1)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := range caches {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			errs <- readEveryRow(bg, caches[r], g, r)
		}(r)
	}
	close(start)
	wg.Wait()
	close(errs)
	for _, c := range caches {
		c.Close()
	}
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for idx := range bg.blocks[BlockOut] {
		if bg.rowState[BlockOut][idx].Load() != rowsReady {
			t.Fatalf("block %d never published its row offsets", idx)
		}
	}
}

// readEveryRow reads every out-row of bg through cache c, a block at a time,
// and checks each against g. Even readers walk the blocks in ascending
// order, in step with each other, so they meet blocks whose first decode
// is still running; odd readers walk a stride that depends on r.
func readEveryRow(bg *BlockGraph, c *BlockCache, g *Graph, r int) error {
	nb := bg.NumBlocks(BlockOut)
	c.BeginSparse(nil, nil)
	var eb EncodedBlock
	var adj []VID
	for k := 0; k < nb; k++ {
		idx := k
		if r%2 == 1 {
			idx = (k*7 + r*3) % nb
		}
		mt := bg.blocks[BlockOut][idx]
		dec, err := c.GetRows(BlockOut, idx, &eb)
		for v := mt.first; err == nil && int(v-mt.first) < int(mt.nv); v++ {
			if dec != nil {
				adj, _ = dec.Adj(v)
			} else {
				adj, _, err = eb.Row(v, adj, nil)
			}
			if err == nil && !equalVIDs(adj, g.OutNeighbors(v)) {
				err = fmt.Errorf("reader %d: row %d = %v, want %v", r, v, adj, g.OutNeighbors(v))
			}
		}
		if dec != nil {
			c.Release(dec)
		}
		if err != nil {
			return err
		}
	}
	c.ReleaseRows(&eb)
	return nil
}
