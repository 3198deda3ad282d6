// Package partition assigns vertices to workers (the paper's m-way partition
// with master–mirror replication, §II and §IV-A) and precomputes, per worker,
// which remote vertices must be mirrored locally and which remote workers
// hold mirrors of each local master.
package partition

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"flash/graph"
	"flash/internal/bitset"
)

// Adjacency is the neighbor and degree access mirror discovery, the cost cut
// and the degree tables need: both in-memory CSR graphs (*graph.Graph) and
// out-of-core block graphs (*graph.BlockGraph) satisfy it, so partitions can
// be built by streaming a block file without ever materializing the full
// adjacency. Degrees are O(1) on both (the block graph keeps its offsets
// resident). Implementations may return slices that are only valid until the
// next call (the block graph's sequential MRU does); the partitioner never
// retains them.
type Adjacency interface {
	NumVertices() int
	OutDegree(u graph.VID) int
	InDegree(v graph.VID) int
	OutNeighbors(u graph.VID) []graph.VID
	InNeighbors(v graph.VID) []graph.VID
}

// Placement maps vertices to owning workers. Implementations must be
// bijective between global ids and (worker, local index) pairs.
type Placement interface {
	// Workers returns the number of workers m.
	Workers() int
	// Owner returns the worker owning (holding the master of) v.
	Owner(v graph.VID) int
	// LocalIndex returns v's dense index within its owner's master range.
	LocalIndex(v graph.VID) int
	// LocalCount returns the number of masters on worker w.
	LocalCount(w int) int
	// GlobalID is the inverse of (Owner, LocalIndex).
	GlobalID(w, local int) graph.VID
}

// RangePlacement assigns contiguous vertex ranges: worker w owns
// [starts[w], starts[w+1]), cut so that every worker's share of a per-vertex
// cost is near equal. The engine cuts on the pull kernel's work, α + InDegree(v)
// with α = 8·(m−1) (NewEdgeRange; Gemini's chunking rule, with α standing for
// the per-vertex overhead next to the per-edge work), because power-law
// generators and real crawls put their hubs at low ids, where an equal vertex
// count would leave one worker most of the edges. NewRange cuts on unit cost,
// which is an equal vertex count. Contiguous ranges keep local scans
// cache-friendly and make a master's local index an offset.
type RangePlacement struct {
	starts []int
	m      int
}

// NewRange creates a RangePlacement of n vertices over m workers with equal
// vertex counts: the first n%m workers hold one vertex more.
func NewRange(n, m int) *RangePlacement {
	return &RangePlacement{starts: cut(n, m, func(int) int64 { return 1 }), m: m}
}

// NewEdgeRange creates the RangePlacement of g's vertices over m workers that
// balances α + InDegree(v) per worker, α = 8·(m−1). It depends on g's degrees,
// not on |V| alone, so two processes agree on it only over the same graph.
func NewEdgeRange(g Adjacency, m int) *RangePlacement {
	alpha := int64(8 * (m - 1))
	return &RangePlacement{starts: cut(g.NumVertices(), m, func(v int) int64 {
		return alpha + int64(g.InDegree(graph.VID(v)))
	}), m: m}
}

// cut returns the m+1 range starts that split vertices 0..n-1, in id order,
// into m contiguous chunks by a non-negative per-vertex cost of total T.
// Chunk k ends at the first vertex whose cost prefix reaches the k-th share
// target k·⌊T/m⌋ + min(k, T mod m) — NewRange's formula for counts, so unit
// costs give exactly NewRange's equal-count ranges. A chunk can overshoot
// its share only by the last vertex it took, so each costs at most
// T/m + the largest single-vertex cost; one vertex costing more than a share
// leaves the next chunk empty (a worker with no masters).
func cut(n, m int, cost func(v int) int64) []int {
	if m <= 0 {
		panic("partition: need at least one worker")
	}
	var total int64
	for v := 0; v < n; v++ {
		total += cost(v)
	}
	base, rem := total/int64(m), total%int64(m)
	starts := make([]int, m+1)
	v, prefix := 0, int64(0)
	for k := 1; k < m; k++ {
		target := int64(k)*base + min(int64(k), rem)
		for v < n && prefix < target {
			prefix += cost(v)
			v++
		}
		starts[k] = v
	}
	starts[m] = n
	return starts
}

func (p *RangePlacement) Workers() int { return p.m }

func (p *RangePlacement) Owner(v graph.VID) int {
	// Binary search over at most a few dozen workers.
	lo, hi := 0, p.m-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(v) >= p.starts[mid+1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (p *RangePlacement) LocalIndex(v graph.VID) int { return int(v) - p.starts[p.Owner(v)] }
func (p *RangePlacement) LocalCount(w int) int       { return p.starts[w+1] - p.starts[w] }
func (p *RangePlacement) GlobalID(w, local int) graph.VID {
	return graph.VID(p.starts[w] + local)
}

// Start returns the first global id owned by worker w.
func (p *RangePlacement) Start(w int) int { return p.starts[w] }

// HashPlacement assigns vertex v to worker v % m; local index is v / m.
// It balances skewed id distributions at the cost of locality.
type HashPlacement struct {
	n, m int
}

// NewHash creates a HashPlacement of n vertices over m workers.
func NewHash(n, m int) *HashPlacement {
	if m <= 0 {
		panic("partition: need at least one worker")
	}
	return &HashPlacement{n: n, m: m}
}

func (p *HashPlacement) Workers() int               { return p.m }
func (p *HashPlacement) Owner(v graph.VID) int      { return int(v) % p.m }
func (p *HashPlacement) LocalIndex(v graph.VID) int { return int(v) / p.m }
func (p *HashPlacement) LocalCount(w int) int {
	c := p.n / p.m
	if w < p.n%p.m {
		c++
	}
	return c
}
func (p *HashPlacement) GlobalID(w, local int) graph.VID {
	return graph.VID(local*p.m + w)
}

// Part is one worker's view of the partitioned graph. Parts are shared
// read-only between every engine borrowing the same catalog partition.
type Part struct {
	Worker int
	// Masters is the set of local master ids (global numbering).
	MasterLo, MasterCount int // only meaningful for range placement traversal helpers

	// Mirrors marks the remote vertices this worker references through any
	// in- or out-edge of a local master (global numbering, capacity |V|).
	Mirrors *bitset.Bitset

	// mirrorOff and mirrorIDs are the necessary-mirror table (§IV-C) as a
	// CSR over local indices: the workers holding a mirror of local master l
	// are mirrorIDs[mirrorOff[l]:mirrorOff[l+1]], ascending, and
	// mirrorSlots, parallel to mirrorIDs, holds the mirror's slot on each.
	// sendOff, sendLocal and sendSlot are the same entries as a CSR over
	// destination workers: the local masters mirrored on worker to and their
	// slots there are sendLocal/sendSlot[sendOff[to]:sendOff[to+1]].
	mirrorOff, mirrorIDs, mirrorSlots []int32
	sendOff, sendLocal, sendSlot      []int32

	// Slots is the worker's compact state layout: local masters first
	// (slot == local index), then mirrors sorted by global id. Property
	// arrays indexed by slot are O(masters + mirrors) instead of O(|V|).
	Slots *SlotTable

	// view is the pull view over Slots (newPullView), built from g by the
	// first PullView call: only pull steps read it, so a partition that never
	// runs one (BFS on a grid) does not hold it.
	g        Adjacency
	viewOnce sync.Once
	view     atomic.Pointer[PullView]
}

// PullView is one worker's pull-kernel layout over its slot table: the local
// graph of §IV-A, whose in-rows name their sources by slot, so a dense step
// reads a source's state, degrees and gid at one index without translating
// ids. It is shared by every engine borrowing the partition and must not be
// written.
type PullView struct {
	// Deg holds each slot's OutDegree<<32 | InDegree (NewDegreeTable).
	Deg []uint64
	// GIDs maps every slot to its global id, and master l's in-neighbors,
	// each stored as its slot, are Src[Off[l]:Off[l+1]], in the graph's
	// in-row order (so the graph's InWeights stay aligned). The three are
	// nil unless the adjacency is an in-memory CSR: a block graph's rows are
	// read from its cache as gids.
	GIDs []graph.VID
	Off  []int32
	Src  []graph.VID
}

// Partitioned bundles the adjacency source, placement, and per-worker parts.
// It is complete when New returns and read-only from then on.
type Partitioned struct {
	G      Adjacency
	Place  Placement
	Parts  []*Part
	nTotal int
}

// New partitions g over m workers using the given placement. It discovers
// mirrors from both adjacency directions, matching the paper's data layout:
// masters plus "replicas ... used for update propagation and data
// synchronization".
func New(g Adjacency, place Placement) *Partitioned {
	m := place.Workers()
	n := g.NumVertices()
	p := &Partitioned{G: g, Place: place, nTotal: n}
	p.Parts = make([]*Part, m)
	for w := 0; w < m; w++ {
		p.Parts[w] = &Part{
			Worker:    w,
			g:         g,
			Mirrors:   bitset.New(n),
			mirrorOff: make([]int32, place.LocalCount(w)+1),
			sendOff:   make([]int32, m+1),
		}
	}
	// Pass 1: every worker mirrors each remote endpoint of its masters'
	// edges (both directions: pull mode reads in-neighbors, push mode reads
	// local state and writes out-neighbors, whose current value is also read
	// by F/C/M predicates). A newly mirrored vertex counts one more holder
	// for its master and one more entry for its holder, into mirrorOff[l+1]
	// and sendOff[w+1] of the owner's part.
	for v := 0; v < n; v++ {
		w := place.Owner(graph.VID(v))
		part := p.Parts[w]
		for _, u := range g.OutNeighbors(graph.VID(v)) {
			if ow := place.Owner(u); ow != w && !part.Mirrors.TestAndSet(int(u)) {
				p.Parts[ow].mirrorOff[place.LocalIndex(u)+1]++
				p.Parts[ow].sendOff[w+1]++
			}
		}
		for _, u := range g.InNeighbors(graph.VID(v)) {
			if ow := place.Owner(u); ow != w && !part.Mirrors.TestAndSet(int(u)) {
				p.Parts[ow].mirrorOff[place.LocalIndex(u)+1]++
				p.Parts[ow].sendOff[w+1]++
			}
		}
	}
	// Pass 2: invert to per-master and per-destination lists, two CSRs
	// finished from pass 1's counts by shifted prefix sums, then a fill in
	// ascending worker, then gid, order that advances off[k+1] as list k's
	// cursor. The fill gives each mirror its slot (masters first, then
	// mirrors by gid) and, since both placements number an owner's masters in
	// gid order, leaves every list ascending.
	for _, part := range p.Parts {
		entries := shiftedPrefix(part.mirrorOff)
		shiftedPrefix(part.sendOff)
		part.mirrorIDs = make([]int32, entries)
		part.mirrorSlots = make([]int32, entries)
		part.sendLocal = make([]int32, entries)
		part.sendSlot = make([]int32, entries)
	}
	for w := 0; w < m; w++ {
		slot := int32(place.LocalCount(w))
		p.Parts[w].Mirrors.Range(func(v int) bool {
			op, li := p.Parts[place.Owner(graph.VID(v))], place.LocalIndex(graph.VID(v))
			i, k := op.mirrorOff[li+1], op.sendOff[w+1]
			op.mirrorIDs[i], op.mirrorSlots[i] = int32(w), slot
			op.sendLocal[k], op.sendSlot[k] = int32(li), slot
			op.mirrorOff[li+1]++
			op.sendOff[w+1]++
			slot++
			return true
		})
	}
	// Pass 3: freeze each worker's compact slot layout.
	for w := 0; w < m; w++ {
		p.Parts[w].Slots = NewSlotTable(place, w, p.Parts[w].Mirrors)
	}
	return p
}

// NewDegreeTable returns the degrees of st's resident vertices indexed by
// slot, each packed as OutDegree<<32 | InDegree: a kernel that has resolved a
// vertex's slot reads both degrees with one load next to its state, instead
// of two offset pairs at the vertex's global id.
func NewDegreeTable(g Adjacency, st *SlotTable) []uint64 {
	deg := make([]uint64, st.SlotCount())
	pack := func(v graph.VID) uint64 {
		return uint64(g.OutDegree(v))<<32 | uint64(uint32(g.InDegree(v)))
	}
	for l := 0; l < st.MasterCount(); l++ {
		deg[l] = pack(st.GID(l))
	}
	st.RangeMirrors(func(slot int, gid graph.VID) bool {
		deg[slot] = pack(gid)
		return true
	})
	return deg
}

// PullView returns the part's pull view, building it on the first call;
// concurrent first calls share one build.
func (p *Part) PullView() *PullView {
	p.viewOnce.Do(func() { p.view.Store(newPullView(p.g, p.Slots)) })
	return p.view.Load()
}

// newPullView builds st's pull view over g. A worker whose masters hold more
// in-edges than an int32 offset counts keeps no rows.
func newPullView(g Adjacency, st *SlotTable) *PullView {
	v := &PullView{Deg: NewDegreeTable(g, st)}
	cg, ok := g.(*graph.Graph)
	if !ok {
		return v
	}
	masters := st.MasterCount()
	gids, off := make([]graph.VID, st.SlotCount()), make([]int32, masters+1)
	for l := 0; l < masters; l++ {
		gids[l] = st.GID(l)
		edges := int64(off[l]) + int64(cg.InDegree(gids[l]))
		if edges > math.MaxInt32 {
			return v
		}
		off[l+1] = int32(edges)
	}
	st.RangeMirrors(func(slot int, gid graph.VID) bool {
		gids[slot] = gid
		return true
	})
	src := make([]graph.VID, off[masters])
	for l := 0; l < masters; l++ {
		row := src[off[l]:off[l+1]]
		for i, u := range cg.InNeighbors(gids[l]) {
			row[i] = graph.VID(st.Slot(u))
		}
	}
	v.GIDs, v.Off, v.Src = gids, off, src
	assertPullView(v, st, cg) // no-op unless built with -tags flashdebug
	return v
}

// shiftedPrefix turns per-list counts at off[1:] into the shifted prefix sum
// off[k+1] = start of list k (off[0] stays 0) and returns the total.
func shiftedPrefix(off []int32) int32 {
	sum := int32(0)
	for k := 1; k < len(off); k++ {
		off[k], sum = sum, sum+off[k]
	}
	return sum
}

// MirrorWorkers returns, ascending, the workers that hold a mirror of the
// local master with local index l ("necessary mirrors", §IV-C).
func (p *Part) MirrorWorkers(l int) []int32 {
	return p.mirrorIDs[p.mirrorOff[l]:p.mirrorOff[l+1]]
}

// MirrorSlots returns, parallel to MirrorWorkers(l), the slot the mirror of
// local master l occupies on each of those workers.
func (p *Part) MirrorSlots(l int) []int32 {
	return p.mirrorSlots[p.mirrorOff[l]:p.mirrorOff[l+1]]
}

// MirroredOn returns the local masters mirrored on worker to, ascending, and
// parallel to them their slots there: the only masters a necessary-mirror
// sync ships to that worker.
func (p *Part) MirroredOn(to int) (locals, slots []int32) {
	lo, hi := p.sendOff[to], p.sendOff[to+1]
	return p.sendLocal[lo:hi], p.sendSlot[lo:hi]
}

// MirrorEntries returns the number of (master, mirror holder) pairs: the
// records a necessary-mirror sync of every master sends.
func (p *Part) MirrorEntries() int { return len(p.mirrorIDs) }

// Workers returns the number of workers.
func (p *Partitioned) Workers() int { return p.Place.Workers() }

// SharedBytes returns the resident footprint of the partition's derived
// structures: per-worker mirror bitsets, the mirror tables (per master and
// per destination, with the holders' slots), slot-table auxiliaries, and the
// pull views built so far. This is the memory a graph catalog pays once
// per (graph, placement) no matter how many concurrent jobs share the
// partition — the counterpart of Engine.StateBytes, which is paid per job.
func (p *Partitioned) SharedBytes() uint64 {
	var total uint64
	for _, part := range p.Parts {
		total += uint64(len(part.Mirrors.Words())) * 8
		for _, a := range [][]int32{part.mirrorOff, part.mirrorIDs, part.mirrorSlots, part.sendOff, part.sendLocal, part.sendSlot} {
			total += uint64(cap(a)) * 4
		}
		total += part.Slots.AuxBytes()
		if v := part.view.Load(); v != nil {
			total += uint64(cap(v.Deg))*8 + uint64(cap(v.GIDs)+cap(v.Off)+cap(v.Src))*4
		}
	}
	return total
}

// ReplicationFactor returns the average number of copies (master + mirrors)
// per vertex, a standard partitioning quality metric.
func (p *Partitioned) ReplicationFactor() float64 {
	if p.nTotal == 0 {
		return 0
	}
	total := p.nTotal // masters
	for _, part := range p.Parts {
		total += part.Mirrors.Count()
	}
	return float64(total) / float64(p.nTotal)
}

// CheckInvariants verifies the partition invariants (each vertex owned by
// exactly one worker; mirror lists consistent with mirror sets). It is used
// by tests and returns a descriptive error on violation.
func (p *Partitioned) CheckInvariants() error {
	n := p.nTotal
	seen := make([]int, n)
	for w := 0; w < p.Workers(); w++ {
		for l := 0; l < p.Place.LocalCount(w); l++ {
			v := p.Place.GlobalID(w, l)
			if p.Place.Owner(v) != w || p.Place.LocalIndex(v) != l {
				return fmt.Errorf("placement not bijective at worker %d local %d (v=%d)", w, l, v)
			}
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			return fmt.Errorf("vertex %d owned by %d workers", v, c)
		}
	}
	for w, part := range p.Parts {
		var err error
		part.Mirrors.Range(func(v int) bool {
			ow := p.Place.Owner(graph.VID(v))
			if ow == w {
				err = fmt.Errorf("worker %d mirrors its own master %d", w, v)
				return false
			}
			li := p.Place.LocalIndex(graph.VID(v))
			slot := -1
			for i, mw := range p.Parts[ow].MirrorWorkers(li) {
				if int(mw) == w {
					slot = int(p.Parts[ow].MirrorSlots(li)[i])
				}
			}
			if slot < 0 {
				err = fmt.Errorf("mirror list of master %d missing worker %d", v, w)
				return false
			}
			if want := part.Slots.Slot(graph.VID(v)); slot != want {
				err = fmt.Errorf("master %d records slot %d on worker %d, its slot there is %d", v, slot, w, want)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	for w, part := range p.Parts {
		if err := checkSlots(part.Slots, p.Place, w, part.Mirrors); err != nil {
			return err
		}
	}
	return nil
}

// checkSlots verifies the slot-table invariants: masters occupy slots
// [0, MasterCount) at their local index, mirrors follow in ascending gid
// order, and gid↔slot round-trips both ways.
func checkSlots(st *SlotTable, place Placement, w int, mirrors *bitset.Bitset) error {
	if st == nil {
		return fmt.Errorf("worker %d has no slot table", w)
	}
	if st.MasterCount() != place.LocalCount(w) {
		return fmt.Errorf("worker %d slot table has %d masters, placement %d",
			w, st.MasterCount(), place.LocalCount(w))
	}
	if st.SlotCount() != st.MasterCount()+mirrors.Count() {
		return fmt.Errorf("worker %d slot table has %d slots, want %d masters + %d mirrors",
			w, st.SlotCount(), st.MasterCount(), mirrors.Count())
	}
	prev := graph.VID(0)
	for slot := 0; slot < st.SlotCount(); slot++ {
		gid := st.GID(slot)
		if slot < st.MasterCount() {
			if place.Owner(gid) != w || place.LocalIndex(gid) != slot {
				return fmt.Errorf("worker %d slot %d: master gid %d not at its local index", w, slot, gid)
			}
		} else {
			if !mirrors.Test(int(gid)) {
				return fmt.Errorf("worker %d slot %d: gid %d is not a mirror", w, slot, gid)
			}
			if slot > st.MasterCount() && gid <= prev {
				return fmt.Errorf("worker %d slot %d: mirror gids not ascending (%d after %d)", w, slot, gid, prev)
			}
			prev = gid
		}
		if got := st.Slot(gid); got != slot {
			return fmt.Errorf("worker %d: Slot(GID(%d)) = %d", w, slot, got)
		}
		if got, ok := st.Lookup(gid); !ok || got != slot {
			return fmt.Errorf("worker %d: Lookup(GID(%d)) = %d,%v", w, slot, got, ok)
		}
	}
	return nil
}
