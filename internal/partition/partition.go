// Package partition assigns vertices to workers (the paper's m-way partition
// with master–mirror replication, §II and §IV-A) and precomputes, per worker,
// which remote vertices must be mirrored locally and which remote workers
// hold mirrors of each local master.
package partition

import (
	"fmt"

	"flash/graph"
	"flash/internal/bitset"
)

// Adjacency is the neighbor access mirror discovery needs: both in-memory
// CSR graphs (*graph.Graph) and out-of-core block graphs (*graph.BlockGraph)
// satisfy it, so partitions can be built by streaming a block file without
// ever materializing the full adjacency. Implementations may return slices
// that are only valid until the next call (the block graph's sequential MRU
// does); the partitioner never retains them.
type Adjacency interface {
	NumVertices() int
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

// RangePlacement assigns contiguous, balanced vertex ranges: worker w owns
// [starts[w], starts[w+1]). This matches typical CSR-friendly layouts
// (Gemini-style) and gives cache-friendly local scans.
type RangePlacement struct {
	starts []int
	m      int
}

// NewRange creates a RangePlacement of n vertices over m workers.
func NewRange(n, m int) *RangePlacement {
	if m <= 0 {
		panic("partition: need at least one worker")
	}
	starts := make([]int, m+1)
	base, rem := n/m, n%m
	for w := 0; w < m; w++ {
		sz := base
		if w < rem {
			sz++
		}
		starts[w+1] = starts[w] + sz
	}
	return &RangePlacement{starts: starts, m: m}
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
//
//flash:immutable
type Part struct {
	Worker int
	// Masters is the set of local master ids (global numbering).
	MasterLo, MasterCount int // only meaningful for range placement traversal helpers

	// Mirrors marks the remote vertices this worker references through any
	// in- or out-edge of a local master (global numbering, capacity |V|).
	Mirrors *bitset.Bitset

	// mirrorOff and mirrorIDs are the necessary-mirror table (§IV-C) as a
	// CSR over local indices: the workers holding a mirror of local master l
	// are mirrorIDs[mirrorOff[l]:mirrorOff[l+1]], ascending. mirrored lists,
	// ascending, the local masters with at least one such worker.
	mirrorOff []int32
	mirrorIDs []int32
	mirrored  []int32

	// Slots is the worker's compact state layout: local masters first
	// (slot == local index), then mirrors sorted by global id. Property
	// arrays indexed by slot are O(masters + mirrors) instead of O(|V|).
	Slots *SlotTable
}

// Partitioned bundles the adjacency source, placement, and per-worker parts.
// It is complete when New returns and read-only from then on.
//
//flash:immutable
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
			Mirrors:   bitset.New(n),
			mirrorOff: make([]int32, place.LocalCount(w)+1),
		}
	}
	// Pass 1: every worker mirrors each remote endpoint of its masters'
	// edges (both directions: pull mode reads in-neighbors, push mode reads
	// local state and writes out-neighbors, whose current value is also read
	// by F/C/M predicates). A newly mirrored vertex counts one more holder
	// for its master, into mirrorOff[l+1] of the owner's part.
	for v := 0; v < n; v++ {
		w := place.Owner(graph.VID(v))
		part := p.Parts[w]
		for _, u := range g.OutNeighbors(graph.VID(v)) {
			if ow := place.Owner(u); ow != w && !part.Mirrors.TestAndSet(int(u)) {
				p.Parts[ow].mirrorOff[place.LocalIndex(u)+1]++
			}
		}
		for _, u := range g.InNeighbors(graph.VID(v)) {
			if ow := place.Owner(u); ow != w && !part.Mirrors.TestAndSet(int(u)) {
				p.Parts[ow].mirrorOff[place.LocalIndex(u)+1]++
			}
		}
	}
	// Pass 2: invert to per-master mirror-worker lists, a CSR finished in
	// two steps from pass 1's counts: prefix-sum, then fill in ascending
	// worker order — every list comes out ascending — using mirrorOff[l+1]
	// as master l's cursor, which leaves it at its final value.
	for w := 0; w < m; w++ {
		off, masters := p.Parts[w].mirrorOff, 0
		for _, c := range off[1:] {
			if c > 0 {
				masters++
			}
		}
		// Shifted prefix sum: off[l+1] becomes the start of master l's list,
		// where the fill below begins; filling advances it to the end.
		mirrored := make([]int32, 0, masters)
		sum := int32(0)
		for l := 1; l < len(off); l++ {
			if off[l] > 0 {
				mirrored = append(mirrored, int32(l-1))
			}
			off[l], sum = sum, sum+off[l]
		}
		p.Parts[w].mirrored = mirrored
		p.Parts[w].mirrorIDs = make([]int32, sum)
	}
	for w := 0; w < m; w++ {
		p.Parts[w].Mirrors.Range(func(v int) bool {
			ow, li := place.Owner(graph.VID(v)), place.LocalIndex(graph.VID(v))
			p.Parts[ow].mirrorIDs[p.Parts[ow].mirrorOff[li+1]] = int32(w)
			p.Parts[ow].mirrorOff[li+1]++
			return true
		})
	}
	// Pass 3: freeze each worker's compact slot layout.
	for w := 0; w < m; w++ {
		p.Parts[w].Slots = NewSlotTable(place, w, p.Parts[w].Mirrors)
	}
	return p
}

// MirrorWorkers returns, ascending, the workers that hold a mirror of the
// local master with local index l ("necessary mirrors", §IV-C).
func (p *Part) MirrorWorkers(l int) []int32 {
	return p.mirrorIDs[p.mirrorOff[l]:p.mirrorOff[l+1]]
}

// Mirrored returns, ascending, the local indices of the masters that have at
// least one mirror: the only masters a necessary-mirror sync can ship.
func (p *Part) Mirrored() []int32 { return p.mirrored }

// Workers returns the number of workers.
func (p *Partitioned) Workers() int { return p.Place.Workers() }

// SharedBytes returns the resident footprint of the partition's derived
// structures: per-worker mirror bitsets, mirror-worker tables, and slot-table
// auxiliaries. This is the memory a graph catalog pays once per (graph,
// placement) no matter how many concurrent jobs share the partition — the
// counterpart of Engine.StateBytes, which is paid per job.
func (p *Partitioned) SharedBytes() uint64 {
	var total uint64
	for _, part := range p.Parts {
		total += uint64(len(part.Mirrors.Words())) * 8
		total += uint64(cap(part.mirrorOff)+cap(part.mirrorIDs)+cap(part.mirrored)) * 4
		total += part.Slots.AuxBytes()
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
			found := false
			for _, mw := range p.Parts[ow].MirrorWorkers(li) {
				if int(mw) == w {
					found = true
				}
			}
			if !found {
				err = fmt.Errorf("mirror list of master %d missing worker %d", v, w)
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
