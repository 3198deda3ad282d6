// The out-of-core base edge set: E over a FLASHBLK block graph.
//
// blockEdges makes the engine's kernels storage-oblivious — EdgeMapSparse and
// EdgeMapDense walk the same adjacency rows, but a block row is resolved
// through the thread's cursor and served from the worker's bounded block
// cache instead of an in-memory CSR row. The bimodal scheduling of M-Flash
// falls out of the engine's existing Ligra density switch:
//
//   - Dense supersteps pull over every local master in ascending gid order,
//     which under range placement is a sequential stream over the worker's
//     partition of the block file — each block is read once per superstep no
//     matter how small the cache is. A pull without C reads every row, so it
//     decodes whole blocks through the cache. A pull with C reads only the
//     rows of the targets that pass it, as row reads (below).
//   - Sparse supersteps push only from active sources, so only their blocks
//     are read.
//
// A row read serves a vertex whose block is not resident: the thread's
// cursor keeps the block's encoded bytes and decodes just the rows asked for
// at the offsets the block carries, admitting nothing to the cache (M-Flash's
// selective read of a sparse block, FlashGraph's per-vertex edge-list
// request).
package core

import (
	"fmt"

	"flash/graph"
	"flash/internal/partition"
)

// blockEdges is E served from the FLASHBLK backend. Zero-sized: all state
// lives on the worker (cache), the calling thread's Ctx (cursor) and the
// engine config (block graph).
type blockEdges[V any] struct{}

// blockCursor is one thread's current block in one direction, kept pinned in
// the worker's cache between calls: consecutive vertices nearly always share
// a block, so the per-vertex path is a range test, and the cache's mutex and
// the block-table search are paid once per block change.
type blockCursor struct {
	blk *graph.DecodedBlock // pinned; nil before the first call and after a flush
	// depth counts the calls in progress through this cursor. A nested call
	// from inside a yield (JoinEE(E, E) calls Out from Out's own loop) sees it
	// nonzero and must leave blk pinned for the loop still running over it.
	depth int
	hits  uint64 // vertices served from blk without going to the cache

	// rows is set for a superstep that reads rows (a push, or a pull with
	// C): a vertex whose block is not resident is then read from enc, the
	// encoded block the cursor last read (GetRows), into adj/ws — the
	// cursor's own row buffer, apart from the Ctx's rowAdj/rowW, which rowOf
	// fills for derived sets through iterate.
	rows bool
	enc  graph.EncodedBlock
	adj  []graph.VID
	ws   []float32
}

// getBlock fetches a pinned decoded block through the worker's cache; an I/O
// or corruption error panics, which parallelWorkers converts into a clean
// non-recoverable superstep failure (replaying a read against a corrupt file
// would fail identically).
//
//flash:hotpath
func getBlock[V any](c *Ctx[V], dir int, v graph.VID) *graph.DecodedBlock {
	dec, err := c.w.bcache.Get(dir, blockIndex(c, dir, v))
	if err != nil {
		panic(fmt.Errorf("core: out-of-core edge read: %w", err))
	}
	return dec
}

// blockIndex returns the index of the block holding v's row in direction dir.
//
//flash:hotpath
func blockIndex[V any](c *Ctx[V], dir int, v graph.VID) int {
	if dir == graph.BlockIn {
		return c.w.eng.bg.InBlockOf(v)
	}
	return c.w.eng.bg.OutBlockOf(v)
}

// row returns v's adjacency in the given direction from the thread's cursor,
// moving the cursor to v's block first when it is elsewhere. The slices alias
// the pinned block, so they are valid until the cursor moves again or the
// superstep ends. In a step that reads rows a block that is not resident is
// not pinned: its encoded bytes stay on the cursor, shared by the next vertices
// in it, and the slices alias the cursor's row buffer, valid until the
// cursor's next row. Only a caller with no loop running over the cursor
// (depth 0) may move it or decode a row; iterate sees to that for nested
// calls.
//
//flash:hotpath
func (c *Ctx[V]) row(dir int, v graph.VID) ([]graph.VID, []float32) {
	cur := &c.blk[dir]
	if blk := cur.blk; blk != nil && blk.Contains(v) {
		cur.hits++
		return blk.Adj(v)
	}
	if cur.rows && cur.enc.Contains(v) {
		return cur.decodeRow(v)
	}
	if cur.blk != nil {
		c.w.bcache.Release(cur.blk)
		cur.blk = nil
	}
	if !cur.rows {
		cur.blk = getBlock(c, dir, v)
		return cur.blk.Adj(v)
	}
	dec, err := c.w.bcache.GetRows(dir, blockIndex(c, dir, v), &cur.enc)
	if err != nil {
		panic(fmt.Errorf("core: out-of-core edge read: %w", err))
	}
	if dec != nil {
		cur.blk = dec
		return dec.Adj(v)
	}
	return cur.decodeRow(v)
}

// decodeRow decodes v's row from the cursor's encoded block into its row
// buffer.
//
//flash:hotpath
func (cur *blockCursor) decodeRow(v graph.VID) ([]graph.VID, []float32) {
	adj, ws, err := cur.enc.Row(v, cur.adj, cur.ws)
	if err != nil {
		panic(fmt.Errorf("core: out-of-core edge read: %w", err))
	}
	cur.adj, cur.ws = adj, ws
	return adj, ws
}

// iterate yields v's adjacency in the given direction from the thread's
// cursor (row). A nested call — from inside a yield, while a loop further up
// the stack still reads the cursor's block or row buffer — that needs another
// block pins that block just for its own loop.
//
//flash:hotpath
func (c *Ctx[V]) iterate(dir int, v graph.VID, yield func(graph.VID, float32) bool) {
	cur := &c.blk[dir]
	var adj []graph.VID
	var ws []float32
	if cur.depth == 0 || (cur.blk != nil && cur.blk.Contains(v)) {
		adj, ws = c.row(dir, v)
	} else {
		blk := getBlock(c, dir, v)
		defer c.w.bcache.Release(blk)
		adj, ws = blk.Adj(v)
	}
	cur.depth++
	for i, d := range adj {
		var w float32
		if ws != nil {
			w = ws[i]
		}
		if !yield(d, w) {
			break
		}
	}
	cur.depth--
}

//flash:hotpath
func (blockEdges[V]) Out(c *Ctx[V], u graph.VID, yield func(graph.VID, float32) bool) {
	c.iterate(graph.BlockOut, u, yield)
}

//flash:hotpath
func (blockEdges[V]) In(c *Ctx[V], d graph.VID, yield func(graph.VID, float32) bool) {
	c.iterate(graph.BlockIn, d, yield)
}

func (blockEdges[V]) SupportsIn() bool  { return true }
func (blockEdges[V]) SupportsOut() bool { return true }
func (blockEdges[V]) Physical() bool    { return true }

// OutDegreeHint reads the skeleton's resident offset array — no I/O, so the
// density rule stays as cheap as in-memory.
func (blockEdges[V]) OutDegreeHint(c *Ctx[V], u graph.VID) int {
	return c.G.OutDegree(u)
}

// E returns the engine's base edge set: the block-backed iterator when the
// engine runs out-of-core, the in-memory CSR iterator otherwise. Derived
// sets (ReverseE, JoinEU, ...) compose over either transparently.
func (e *Engine[V]) E() EdgeSet[V] {
	if e.bg != nil {
		return blockEdges[V]{}
	}
	return BaseE[V]()
}

// topo returns the adjacency source partition construction reads: the block
// graph when the engine is out-of-core, else the in-memory CSR.
func (e *Engine[V]) topo() partition.Adjacency {
	if e.bg != nil {
		return e.bg
	}
	return e.g
}

// beginBlocks starts the worker's out-of-core superstep: the cache files its
// misses' bytes under the sparse or the dense count, and the threads'
// cursors read rows (GetRows) or whole blocks (Get) until flushBlockStats.
// The two are apart: a pull with C is a dense step that reads rows.
func (w *worker[V]) beginBlocks(sparse, rows bool) {
	if w.bcache == nil {
		return
	}
	for t := range w.ctxs {
		for dir := range w.ctxs[t].blk {
			w.ctxs[t].blk[dir].rows = rows
		}
	}
	if sparse {
		w.bcache.BeginSparse()
	} else {
		w.bcache.BeginDense()
	}
}

// flushBlockStats ends the worker's out-of-core superstep: every thread's
// cursors are released (no block stays pinned and no encoded block is kept
// across a superstep boundary, and a step that failed mid-iteration leaves
// no depth behind), and the cache's counter delta plus the cursors' hit
// counts — a hit is a vertex served from a resident block, wherever it was
// noticed — drain into the worker's record; parallelWorkers folds the
// records into the engine collector at the superstep barrier, so RunResult
// and the bench suite see per-step-accurate totals.
func (w *worker[V]) flushBlockStats() {
	if w.bcache == nil {
		return
	}
	var hits uint64
	for t := range w.ctxs {
		for dir := range w.ctxs[t].blk {
			cur := &w.ctxs[t].blk[dir]
			if cur.blk != nil {
				w.bcache.Release(cur.blk)
			}
			w.bcache.ReleaseRows(&cur.enc)
			hits += cur.hits
			cur.blk, cur.depth, cur.hits, cur.rows = nil, 0, 0, false
		}
	}
	d, r := w.bcache.TakeDelta(), w.rec
	r.BlockHits += d.Hits + hits
	r.BlockMisses += d.Misses
	r.BlockEvictions += d.Evictions
	r.BlockDecodedEdges += d.DecodedEdges
	r.BlockBytesDense += d.BytesDense
	r.BlockBytesSparse += d.BytesSparse
}
