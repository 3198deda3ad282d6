package graph

import (
	"fmt"
	"sync"

	"flash/internal/bitset"
)

// BlockCacheStats is a snapshot of cache activity counters.
type BlockCacheStats struct {
	Hits      uint64 // Get served from a resident block
	Misses    uint64 // Get that read and decoded a block from disk
	Evictions uint64 // blocks dropped to stay under the byte budget

	// Encoded bytes read from disk, split by the scheduling mode the cache
	// was in when the miss happened.
	BytesDense  uint64
	BytesSparse uint64

	// Unplanned counts sparse-mode misses on blocks outside the residency
	// plan. The physical base edge set never produces these (every pushed
	// source was planned); virtual edge sets composed with joins may.
	Unplanned uint64
}

func (s BlockCacheStats) sub(o BlockCacheStats) BlockCacheStats {
	return BlockCacheStats{
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Evictions:   s.Evictions - o.Evictions,
		BytesDense:  s.BytesDense - o.BytesDense,
		BytesSparse: s.BytesSparse - o.BytesSparse,
		Unplanned:   s.Unplanned - o.Unplanned,
	}
}

// cacheSlot is one (direction, block) residency slot.
type cacheSlot struct {
	dec  *DecodedBlock // nil when not resident
	ref  bool          // clock reference bit
	pins int           // Gets not yet Released; the clock hand skips a pinned slot
}

// clockRef names a resident slot on the clock ring.
type clockRef struct {
	dir uint32
	idx uint32
}

// BlockCache is a bounded cache of decoded FLASHBLK blocks with clock
// (second-chance) eviction. One cache per worker keeps the hot path free of
// cross-worker contention. The mutex is taken once per Get and once per
// Release — by the engine once per block change of a thread's cursor, never
// per vertex or per edge — and is not held across block I/O.
//
// Blocks are handed out pinned and live in recycled memory: Get pins the
// block it returns, Release unpins it, and only an unpinned block can be
// evicted. An evicted block's adjacency arenas go to a free list and the next
// miss decodes into the best-fitting one, so a steady-state miss allocates
// nothing; a block must therefore not be touched after its Release. The
// budget bounds, by capacity, every arena the cache holds — resident blocks
// and the free list alike.
//
// The cache is bimodal, mirroring the engine's dense/sparse switch:
// BeginDense marks the superstep as a sequential stream of every block the
// worker's masters touch, BeginSparse installs the per-block
// frontier-residency bitmaps so only blocks containing active sources are
// expected — any other sparse read is counted as Unplanned.
type BlockCache struct {
	bg     *BlockGraph
	budget int64

	mu    sync.Mutex
	slots [2][]cacheSlot
	ring  []clockRef
	hand  int
	used  int64           // capacity bytes of resident, in-flight and free arenas
	free  []*DecodedBlock // evicted blocks whose arenas await the next miss
	encs  [][]byte        // idle encoded-block read buffers

	sparse bool
	plan   [2]*bitset.Bitset // residency plan by logical direction

	stats   BlockCacheStats
	drained BlockCacheStats // portion already handed out by TakeDelta
}

// NewBlockCache returns a cache over bg bounded by budget decoded bytes.
// The budget yields to two things: a single block larger than it is cached
// alone, and pinned blocks are never evicted, so Bytes can exceed the budget
// while more than a budget's worth of blocks is pinned.
func NewBlockCache(bg *BlockGraph, budget int64) *BlockCache {
	if budget < 0 {
		budget = 0
	}
	c := &BlockCache{bg: bg, budget: budget}
	c.slots[BlockOut] = make([]cacheSlot, len(bg.blocks[BlockOut]))
	c.slots[BlockIn] = make([]cacheSlot, len(bg.blocks[BlockIn]))
	return c
}

// Budget returns the decoded-byte budget.
func (c *BlockCache) Budget() int64 { return c.budget }

// Bytes returns the bytes the cache holds: resident blocks plus arenas
// awaiting reuse, by capacity.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// BeginDense switches accounting to dense mode: the superstep streams every
// block of the worker's partition sequentially. No block may be pinned across
// a superstep boundary.
func (c *BlockCache) BeginDense() {
	c.mu.Lock()
	c.debugAssertUnpinned()
	c.sparse = false
	c.plan[BlockOut], c.plan[BlockIn] = nil, nil
	c.mu.Unlock()
}

// BeginSparse switches accounting to sparse mode with the given per-block
// frontier-residency plans (indexed by logical direction; either may be nil
// to accept all reads in that direction). No block may be pinned across a
// superstep boundary.
func (c *BlockCache) BeginSparse(planOut, planIn *bitset.Bitset) {
	c.mu.Lock()
	c.debugAssertUnpinned()
	c.sparse = true
	c.plan[BlockOut], c.plan[BlockIn] = planOut, planIn
	c.mu.Unlock()
}

// Get returns the decoded block idx of the given logical direction, pinned:
// it is read and decoded on a miss (evicting colder unpinned blocks), and it
// stays resident and unchanged until the matching Release. After Release the
// block's memory may be recycled for another block at any time, so the caller
// must drop the pointer and every slice obtained from it.
//
//flash:hotpath
func (c *BlockCache) Get(dir, idx int) (*DecodedBlock, error) {
	d := c.bg.mapDir(dir)
	if idx < 0 || idx >= len(c.slots[d]) {
		return nil, fmt.Errorf("graph: block %d/%d out of range", d, idx)
	}
	c.mu.Lock()
	slot := &c.slots[d][idx]
	if slot.dec != nil {
		slot.ref = true
		slot.pins++
		c.stats.Hits++
		dec := slot.dec
		c.mu.Unlock()
		return dec, nil
	}
	c.accountMiss(dir, d, idx)
	dec := c.arena(int(c.bg.blocks[d][idx].edges))
	var enc []byte
	if n := len(c.encs); n > 0 {
		enc, c.encs = c.encs[n-1], c.encs[:n-1]
	}
	c.mu.Unlock()

	enc, err := c.bg.readBlock(d, idx, dec, enc)

	c.mu.Lock()
	dec = c.admit(d, idx, dec, enc, err)
	c.mu.Unlock()
	return dec, err
}

// admit finishes a miss under c.mu: the read buffer goes back for the next
// miss, and the freshly decoded block becomes resident and pinned — unless
// the read failed, or another thread of this worker decoded the same block
// meanwhile, in which case its arenas are recycled and the resident block (or
// nil) is returned instead.
//
//flash:blockowner the cache is the budget-bounded residency authority
func (c *BlockCache) admit(d, idx int, dec *DecodedBlock, enc []byte, err error) *DecodedBlock {
	c.encs = append(c.encs, enc)
	slot := &c.slots[d][idx]
	switch {
	case err != nil:
		c.recycle(dec)
		return nil
	case slot.dec != nil:
		c.recycle(dec)
		slot.pins++
		return slot.dec
	}
	*slot = cacheSlot{dec: dec, ref: true, pins: 1}
	c.ring = append(c.ring, clockRef{dir: uint32(d), idx: uint32(idx)})
	return dec
}

// Release unpins a block returned by Get. The caller must not use the block,
// or any slice obtained from it, afterwards.
//
//flash:hotpath
func (c *BlockCache) Release(b *DecodedBlock) {
	c.mu.Lock()
	slot := &c.slots[b.d][b.idx]
	if slot.dec != b || slot.pins == 0 {
		c.mu.Unlock()
		panic("graph: Release of a block that is not pinned in this cache")
	}
	slot.pins--
	c.mu.Unlock()
}

// accountMiss records a miss under c.mu: bytes by scheduling mode, and
// whether a sparse read was outside the residency plan.
func (c *BlockCache) accountMiss(dir, d, idx int) {
	c.stats.Misses++
	enc := uint64(c.bg.blocks[d][idx].encLen)
	if c.sparse {
		c.stats.BytesSparse += enc
		if p := c.plan[dir]; p != nil && !p.Test(idx) {
			c.stats.Unplanned++
		}
	} else {
		c.stats.BytesDense += enc
	}
}

// arena returns, under c.mu, a block whose arenas hold at least edges
// entries, already counted in c.used: the best fit on the free list, else a
// fresh allocation. Either way the cache is first brought back under budget —
// dropping free arenas (they did not fit), then evicting via the clock hand,
// whose victim may be the fit. When everything left is pinned the cache
// over-commits instead of waiting: a block bigger than the whole budget is
// cached alone, because refusing to cache it would turn a sequential scan
// over such blocks into one disk read and full decode per *vertex* instead of
// per block, and a thread must be able to pin the block it is about to
// iterate whatever the others hold.
//
//flash:amortized allocates only when no free arena fits the missed block
//flash:blockowner the cache is the budget-bounded residency authority
func (c *BlockCache) arena(edges int) *DecodedBlock {
	need := arenaBytes(edges, c.bg.weighted)
	b := c.takeFree(edges)
	for {
		want := c.used
		if b == nil {
			want += need
		}
		if want <= c.budget {
			break
		}
		if n := len(c.free); n > 0 {
			c.used -= c.free[n-1].Bytes()
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else if !c.evictOne() {
			break
		} else if b == nil {
			b = c.takeFree(edges)
		}
	}
	if b == nil {
		b = new(DecodedBlock)
		b.alloc(edges, c.bg.weighted)
		c.used += need
	}
	return b
}

// takeFree removes and returns the free block whose arenas fit edges most
// tightly, or nil when none holds that many or the tightest would waste more
// than it uses (block edge counts vary severalfold; an oversize hub's arena
// must not be spent on an ordinary block).
//
//flash:blockowner
func (c *BlockCache) takeFree(edges int) *DecodedBlock {
	best := -1
	for i, b := range c.free {
		if n := cap(b.adj); n >= edges && n <= 2*edges && (best < 0 || n < cap(c.free[best].adj)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := c.free[best]
	last := len(c.free) - 1
	c.free[best], c.free[last] = c.free[last], nil
	c.free = c.free[:last]
	return b
}

// recycle puts a block that is not (or no longer) resident on the free list;
// its arenas stay counted in c.used.
//
//flash:blockowner
func (c *BlockCache) recycle(b *DecodedBlock) {
	debugPoison(b)
	c.free = append(c.free, b)
}

// evictOne advances the clock hand past pinned blocks, granting second
// chances to referenced ones, and moves the first cold block to the free
// list. It reports false when every resident block is pinned.
func (c *BlockCache) evictOne() bool {
	// Two sweeps: the first clears every reference bit it passes.
	for n := 2 * len(c.ring); n > 0; n-- {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		r := c.ring[c.hand]
		slot := &c.slots[r.dir][r.idx]
		if slot.pins > 0 {
			c.hand++
			continue
		}
		if slot.ref {
			slot.ref = false
			c.hand++
			continue
		}
		c.recycle(slot.dec)
		slot.dec = nil
		c.ring[c.hand] = c.ring[len(c.ring)-1]
		c.ring = c.ring[:len(c.ring)-1]
		c.stats.Evictions++
		return true
	}
	return false
}

// Stats returns cumulative counters since the cache was created.
func (c *BlockCache) Stats() BlockCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// TakeDelta returns the counters accumulated since the previous TakeDelta,
// for flushing into a metrics collector once per superstep.
func (c *BlockCache) TakeDelta() BlockCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.stats.sub(c.drained)
	c.drained = c.stats
	return d
}
