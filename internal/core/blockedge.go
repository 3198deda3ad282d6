// The out-of-core base edge set: E over a FLASHBLK block graph.
//
// blockEdges makes the engine's kernels storage-oblivious — EdgeMapSparse and
// EdgeMapDense call the same Out/In iterator interface, but each call resolves
// the vertex's block and serves the adjacency from the worker's bounded block
// cache instead of an in-memory CSR row. The bimodal scheduling of M-Flash
// falls out of the engine's existing Ligra density switch:
//
//   - Dense supersteps pull over every local master in ascending gid order,
//     which under range placement is a sequential stream over the worker's
//     partition of the block file — each block is read once per superstep no
//     matter how small the cache is.
//   - Sparse supersteps push only from active sources, so before phase 1 the
//     worker computes the per-block frontier-residency bitmap (which blocks
//     contain at least one active source) and hands it to the cache as the
//     step's plan; only those blocks are read.
package core

import (
	"fmt"

	"flash/graph"
	"flash/internal/bitset"
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
}

// getBlock fetches a pinned decoded block through the worker's cache; an I/O
// or corruption error panics, which parallelWorkers converts into a clean
// non-recoverable superstep failure (replaying a read against a corrupt file
// would fail identically).
//
//flash:hotpath
func getBlock[V any](c *Ctx[V], dir int, v graph.VID) *graph.DecodedBlock {
	bg := c.w.eng.bg
	idx := bg.OutBlockOf(v)
	if dir == graph.BlockIn {
		idx = bg.InBlockOf(v)
	}
	dec, err := c.w.bcache.Get(dir, idx)
	if err != nil {
		panic(fmt.Errorf("core: out-of-core edge read: %w", err))
	}
	return dec
}

// iterate yields v's adjacency in the given direction from the thread's
// cursor, moving the cursor to v's block first when it is elsewhere and no
// loop further up the stack is still reading it; a nested call that needs
// another block pins that block just for its own loop.
//
//flash:hotpath
//flash:blockowner the per-thread cursor keeps its block pinned until it moves on or the superstep ends
func (c *Ctx[V]) iterate(dir int, v graph.VID, yield func(graph.VID, float32) bool) {
	cur := &c.blk[dir]
	blk := cur.blk
	switch {
	case blk != nil && blk.Contains(v):
		cur.hits++
	case cur.depth == 0:
		if blk != nil {
			cur.blk = nil
			c.w.bcache.Release(blk)
		}
		blk = getBlock(c, dir, v)
		cur.blk = blk
	default:
		blk = getBlock(c, dir, v)
		defer c.w.bcache.Release(blk)
	}
	cur.depth++
	adj, ws := blk.Adj(v)
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

// beginDenseBlocks switches the worker's cache to dense accounting: the pull
// kernel is about to stream every block its masters' in-edges live in.
func (w *worker[V]) beginDenseBlocks() {
	if w.bcache != nil {
		w.bcache.BeginDense()
	}
}

// planSparseBlocks builds the per-block frontier-residency bitmap for a
// sparse superstep — the blocks (both directions) containing at least one
// active source — and installs it as the cache's plan. With the physical base
// edge set every push-phase read is in the plan by construction (each active
// source's out-block is marked); the cache's Unplanned counter asserts this.
// Derived and virtual edge sets may read beyond the plan (e.g. a two-hop join
// reading another source's block), which is counted, not an error.
//
//flash:hotpath
func (w *worker[V]) planSparseBlocks(membership *bitset.Bitset) {
	if w.bcache == nil {
		return
	}
	bg := w.eng.bg
	place := w.eng.place
	w.resOut.Reset()
	w.resIn.Reset()
	membership.Range(func(l int) bool {
		gid := place.GlobalID(w.id, l)
		w.resOut.Set(bg.OutBlockOf(gid))
		w.resIn.Set(bg.InBlockOf(gid))
		return true
	})
	w.bcache.BeginSparse(w.resOut, w.resIn)
}

// flushBlockStats ends the worker's out-of-core superstep: every thread's
// cursors are released (no block stays pinned across a superstep boundary,
// and a step that failed mid-iteration leaves no depth behind), and the
// cache's counter delta plus the cursors' hit counts — a hit is a vertex
// served from a resident block, wherever it was noticed — drain into the
// worker's metric shard; parallelWorkers folds the shards into the engine
// collector at the superstep barrier, so RunResult and the bench suite see
// per-step-accurate totals.
//
//flash:blockowner
func (w *worker[V]) flushBlockStats() {
	if w.bcache == nil {
		return
	}
	d := w.bcache.TakeDelta()
	for t := range w.ctxs {
		for dir := range w.ctxs[t].blk {
			cur := &w.ctxs[t].blk[dir]
			if cur.blk != nil {
				w.bcache.Release(cur.blk)
			}
			d.Hits += cur.hits
			cur.blk, cur.depth, cur.hits = nil, 0, 0
		}
	}
	w.met.AddBlockCache(d.Hits, d.Misses, d.Evictions, d.BytesDense, d.BytesSparse)
}
