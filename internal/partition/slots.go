package partition

import (
	"math/bits"
	"slices"

	"flash/graph"
	"flash/internal/bitset"
)

// SlotTable is one worker's compact state layout (the paper's FLASHWARE data
// layout, §IV-A): instead of indexing per-worker property arrays by global
// vertex id — O(|V|) resident values per worker regardless of how little of
// the graph it owns — a worker stores one dense slot per *resident* vertex:
//
//	slots [0, MasterCount)            local masters, slot == local index
//	slots [MasterCount, SlotCount)    mirrors, sorted by ascending global id
//
// Property arrays indexed by slot are therefore O(masters + mirrors), and
// within each region ascending slot order is ascending global-id order, so
// walks over a slot-indexed bitset keep the engine's deterministic
// ascending-vid message streams intact.
//
// gid→slot resolves in O(1): masters by the placement arithmetic, mirrors by
// a popcount-rank structure over the mirror bitmap (one 4-byte prefix count
// per 64-bit word). The inverse slot→gid is the placement arithmetic for
// masters and rank-select over the same bitmap for mirrors — no per-mirror
// gid array, so the table's own footprint stays at one int32 per 64 vertices.
//
// Under Config.FullMirrors every vertex is resident on every worker
// (FullSlotTable marks every non-master a mirror), which keeps
// virtual-edge-set algorithms — arbitrary cross-vertex reads — working
// unchanged while preserving the uniform masters-then-sorted-mirrors shape.
type SlotTable struct {
	kind    uint8
	worker  int
	masters int
	n       int // global vertex count

	// Master-range arithmetic (kindRange) or modulus (kindHash).
	mlo, mhi int
	mod      int
	place    Placement // kindGeneric fallback only

	// Mirror membership words (shared with Part.Mirrors; never mutated), the
	// per-word prefix popcounts for O(1) rank, and the total mirror count.
	words    []uint64
	rank     []int32
	nmirrors int
}

const (
	kindRange uint8 = iota
	kindHash
	kindGeneric
)

// NewSlotTable builds the compact slot table for worker w over its mirror
// set. The mirror bitset's backing words are retained (not copied) and must
// not be mutated afterwards.
func NewSlotTable(place Placement, w int, mirrors *bitset.Bitset) *SlotTable {
	masters := place.LocalCount(w)
	words := mirrors.Words()
	rank := make([]int32, len(words))
	c := int32(0)
	for i, wd := range words {
		rank[i] = c
		c += int32(bits.OnesCount64(wd))
	}
	st := &SlotTable{
		worker:   w,
		masters:  masters,
		n:        mirrors.Cap(),
		words:    words,
		rank:     rank,
		nmirrors: int(c),
	}
	switch p := place.(type) {
	case *RangePlacement:
		st.kind = kindRange
		st.mlo = p.Start(w)
		st.mhi = st.mlo + masters
	case *HashPlacement:
		st.kind = kindHash
		st.mod = p.Workers()
	default:
		st.kind = kindGeneric
		st.place = place
	}
	return st
}

// FullSlotTable returns the table for a fully-replicated worker
// (Config.FullMirrors): every non-master vertex is a mirror, so every vertex
// is resident and arbitrary cross-vertex reads resolve, while the layout
// keeps the uniform masters-then-sorted-mirrors shape.
func FullSlotTable(place Placement, w, n int) *SlotTable {
	mirrors := bitset.New(n)
	for v := 0; v < n; v++ {
		if place.Owner(graph.VID(v)) != w {
			mirrors.Set(v)
		}
	}
	return NewSlotTable(place, w, mirrors)
}

// SlotCount returns the number of resident vertices (and slots).
func (s *SlotTable) SlotCount() int { return s.masters + s.nmirrors }

// MasterCount returns the number of local masters (slots [0, MasterCount)).
func (s *SlotTable) MasterCount() int { return s.masters }

// MirrorCount returns the number of mirror slots.
func (s *SlotTable) MirrorCount() int { return s.nmirrors }

// Slot returns v's slot. v must be resident (a local master or mirror);
// passing a non-resident vertex silently aliases another slot, exactly as
// meaningless as reading a never-synced global-id entry was in the old
// layout. Use Lookup where residency is not guaranteed.
func (s *SlotTable) Slot(v graph.VID) int {
	s.assertResident(v) // no-op unless built with -tags flashdebug
	switch s.kind {
	case kindRange:
		if iv := int(v); iv >= s.mlo && iv < s.mhi {
			return iv - s.mlo
		}
	case kindHash:
		if iv := int(v); iv%s.mod == s.worker {
			return iv / s.mod
		}
	default:
		if s.place.Owner(v) == s.worker {
			return s.place.LocalIndex(v)
		}
	}
	wi := int(v) >> 6
	return s.masters + int(s.rank[wi]) +
		bits.OnesCount64(s.words[wi]&(1<<(uint(v)&63)-1))
}

// Lookup returns v's slot and whether v is resident at all.
func (s *SlotTable) Lookup(v graph.VID) (int, bool) {
	switch s.kind {
	case kindRange:
		if iv := int(v); iv >= s.mlo && iv < s.mhi {
			return iv - s.mlo, true
		}
	case kindHash:
		if iv := int(v); iv%s.mod == s.worker {
			return iv / s.mod, true
		}
	default:
		if s.place.Owner(v) == s.worker {
			return s.place.LocalIndex(v), true
		}
	}
	wi := int(v) >> 6
	bit := uint64(1) << (uint(v) & 63)
	if s.words[wi]&bit == 0 {
		return 0, false
	}
	return s.masters + int(s.rank[wi]) +
		bits.OnesCount64(s.words[wi]&(bit-1)), true
}

// GID is the inverse of Slot. Master slots resolve by placement arithmetic;
// mirror slots rank-select into the mirror bitmap (O(log words), so hot loops
// over mirrors should use RangeMirrors instead). A range placement's master
// resolves inline, as an offset.
func (s *SlotTable) GID(slot int) graph.VID {
	if slot < s.masters && s.kind == kindRange {
		return graph.VID(s.mlo + slot)
	}
	return s.gid(slot)
}

// gid is GID past the inline case.
func (s *SlotTable) gid(slot int) graph.VID {
	if slot < s.masters {
		if s.kind == kindHash {
			return graph.VID(slot*s.mod + s.worker)
		}
		return s.place.GlobalID(s.worker, slot)
	}
	idx := slot - s.masters
	// The word holding the (idx+1)-th mirror is the one whose prefix rank
	// last stays <= idx: the one before the first rank > idx.
	wi, _ := slices.BinarySearch(s.rank, int32(idx+1))
	wi--
	word := s.words[wi]
	for k := idx - int(s.rank[wi]); k > 0; k-- {
		word &= word - 1
	}
	return graph.VID(wi<<6 + bits.TrailingZeros64(word))
}

// RangeMirrors calls f for every mirror slot in ascending slot (and hence
// ascending gid) order, stopping early if f returns false. It walks the
// mirror bitmap with a running slot cursor — O(words + mirrors), no lookups.
func (s *SlotTable) RangeMirrors(f func(slot int, gid graph.VID) bool) {
	slot := s.masters
	for wi, word := range s.words {
		base := wi << 6
		for word != 0 {
			gid := graph.VID(base + bits.TrailingZeros64(word))
			word &= word - 1
			if !f(slot, gid) {
				return
			}
			slot++
		}
	}
}

// AuxBytes returns the memory footprint of the table's auxiliary structures
// (the rank counts; the mirror bitmap words are shared with the Part's
// mirror set, which both the old and new layouts held).
func (s *SlotTable) AuxBytes() uint64 {
	return uint64(cap(s.rank)) * 4
}
