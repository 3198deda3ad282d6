package core

import (
	"fmt"
	"slices"
	"sort"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/partition"
)

// Subset is the paper's vertexSubset: a distributed set of vertex ids. Each
// worker holds the members among its masters as local indices (§IV-A, "a
// worker simply maintains a set of vertex ids, representing the master
// vertices in the set that locate on it"), in one of two forms: a bitmap or
// an ascending list. A sparse superstep emits lists, so the next one costs
// its frontier instead of a |V|/64-word scan; dense steps, All, Add and the
// set operators use bitmaps. Every read takes either form; only driver-side
// code (Add, the set operators) converts a list in place, so a subset is
// never mutated while a superstep reads it.
type Subset struct {
	owner anyEngine
	local []members
	count int
	// epoch is the membership epoch the per-worker sets are laid out under.
	// A subset held across an Engine.Resize goes stale; checkSubset remaps
	// it into the current epoch before any primitive touches it.
	epoch int
}

// members is one worker's share of a Subset. With bits nil the members are
// list: strictly ascending local indices below n, at most listMax(n) of them.
type members struct {
	bits *bitset.Bitset
	list []int32
	n    int // the worker's LocalCount under the subset's epoch
}

// listMax is the crossover between the two forms over a universe of n
// indices: up to about one entry per bitmap word, sorting, walking and
// clearing a list costs less than scanning the words; beyond it the word
// scans win. The floor keeps small graphs on the list path too.
func listMax(n int) int { return max((n+63)>>6, 64) }

// size returns the member count.
func (m *members) size() int {
	if m.bits != nil {
		return m.bits.Count()
	}
	return len(m.list)
}

// each calls f for every member in ascending order, stopping early if f
// returns false.
func (m *members) each(f func(l int) bool) {
	if m.bits != nil {
		m.bits.Range(f)
		return
	}
	for _, l := range m.list {
		if !f(int(l)) {
			return
		}
	}
}

// has reports membership of local index l without converting the form, so
// concurrent readers (a JoinEU guard inside a superstep) never race.
func (m *members) has(l int) bool {
	if m.bits != nil {
		return m.bits.Test(l)
	}
	_, ok := slices.BinarySearch(m.list, int32(l))
	return ok
}

// add appends l, which must exceed every listed member, or sets it in the
// bitmap.
func (m *members) add(l int) {
	if m.bits != nil {
		m.bits.Set(l)
		return
	}
	m.list = append(m.list, int32(l))
}

// bitmap returns the bitmap form, converting a list in place.
//
//flash:amortized allocates once per conversion, never per member
func (m *members) bitmap() *bitset.Bitset {
	if m.bits == nil {
		m.bits = bitset.New(m.n)
		for _, l := range m.list {
			m.bits.Set(int(l))
		}
		m.list = nil
	}
	return m.bits
}

// shapeLike readies an empty output share that will receive a subset of
// src's members in ascending order: a list with room for all of src's list,
// or an empty bitmap.
func (m *members) shapeLike(src *members) {
	if src.bits == nil {
		m.list = newList(len(src.list))
		return
	}
	m.bitmap()
}

// newList returns an empty list with room for n members: a step's list-form
// output, the one allocation a sparse superstep makes per worker, in
// proportion to its frontier.
//
//flash:amortized O(frontier), once per worker per superstep
func newList(n int) []int32 { return make([]int32, 0, n) }

// anyEngine lets Subset validate that handles are not mixed across engines
// without making Subset generic.
type anyEngine interface{ engineTag() }

func (e *Engine[V]) engineTag() {}

func (e *Engine[V]) newSubset() *Subset { return e.subsetAt(e.memberEpoch) }

// subsetAt returns an empty subset laid out under membership epoch: every
// worker starts as an empty list, so building one allocates no bitmap.
func (e *Engine[V]) subsetAt(epoch int) *Subset {
	place := e.placeHist[epoch]
	s := &Subset{owner: e, local: make([]members, place.Workers()), epoch: epoch}
	for w := range s.local {
		s.local[w].n = place.LocalCount(w)
	}
	return s
}

// checkSubset asserts s belongs to this engine and remaps it if worker
// membership changed since it was built.
//
//flash:amortized remap allocates only on the rare epoch change
func (e *Engine[V]) checkSubset(s *Subset) {
	if s.owner != anyEngine(e) {
		panic("core: vertexSubset used with a different engine")
	}
	if s.epoch != e.memberEpoch {
		e.remapSubset(s)
	}
}

// remapSubset rewrites a stale subset's per-worker sets from the placement it
// was built under into the current one: each member decodes to its global id
// through the recorded epoch's placement and re-encodes through the current
// Owner/LocalIndex into bitmaps. Membership (and therefore count) is
// unchanged — only the distribution over workers moves.
func (e *Engine[V]) remapSubset(s *Subset) {
	oldPlace := e.placeHist[s.epoch]
	remapped := e.newSubset()
	for w := range s.local {
		s.local[w].each(func(l int) bool {
			gid := oldPlace.GlobalID(w, l)
			remapped.local[e.place.Owner(gid)].bitmap().Set(e.place.LocalIndex(gid))
			return true
		})
	}
	s.local = remapped.local
	s.epoch = e.memberEpoch
}

// recount refreshes the cached cardinality.
func (s *Subset) recount() {
	c := 0
	for w := range s.local {
		c += s.local[w].size()
	}
	s.count = c
}

// Size returns |U| (the paper's SIZE primitive).
func (s *Subset) Size() int { return s.count }

// Contains reports membership of v.
func (e *Engine[V]) Contains(s *Subset, v graph.VID) bool {
	e.checkSubset(s)
	e.checkVertex(v)
	return s.local[e.place.Owner(v)].has(e.place.LocalIndex(v))
}

// Add inserts v (the paper's ADD auxiliary operator).
func (e *Engine[V]) Add(s *Subset, v graph.VID) {
	e.checkSubset(s)
	e.checkVertex(v)
	if !s.local[e.place.Owner(v)].bitmap().TestAndSet(e.place.LocalIndex(v)) {
		s.count++
	}
}

func (e *Engine[V]) checkVertex(v graph.VID) {
	if int(v) >= e.g.NumVertices() {
		panic(fmt.Sprintf("core: vertex %d out of range [0,%d)", v, e.g.NumVertices()))
	}
}

// All returns the subset containing every vertex.
func (e *Engine[V]) All() *Subset {
	s := e.newSubset()
	for w := range s.local {
		s.local[w].bitmap().Fill()
	}
	s.count = e.g.NumVertices()
	return s
}

// Empty returns the empty subset.
func (e *Engine[V]) Empty() *Subset { return e.newSubset() }

// FromIDs builds a subset from explicit ids.
func (e *Engine[V]) FromIDs(ids ...graph.VID) *Subset {
	s := e.newSubset()
	for _, v := range ids {
		e.Add(s, v)
	}
	return s
}

// Union returns a ∪ b (paper's UNION).
func (e *Engine[V]) Union(a, b *Subset) *Subset { return e.setOp(a, b, (*bitset.Bitset).Union) }

// Minus returns a \ b (paper's MINUS).
func (e *Engine[V]) Minus(a, b *Subset) *Subset { return e.setOp(a, b, (*bitset.Bitset).Minus) }

// Intersect returns a ∩ b (paper's INTERSACT).
func (e *Engine[V]) Intersect(a, b *Subset) *Subset { return e.setOp(a, b, (*bitset.Bitset).Intersect) }

// setOp computes a op b per worker over bitmaps, converting list-form
// operands in place (driver-side, between supersteps).
func (e *Engine[V]) setOp(a, b *Subset, op func(dst, src *bitset.Bitset)) *Subset {
	e.checkSubset(a)
	e.checkSubset(b)
	out := e.newSubset()
	for w := range out.local {
		bits := out.local[w].bitmap()
		bits.CopyFrom(a.local[w].bitmap())
		op(bits, b.local[w].bitmap())
	}
	out.recount()
	return out
}

// IDs returns all member ids in ascending order (driver-side; intended for
// result extraction and tests). It walks the per-worker members —
// O(members + bitmap words) — instead of probing every vertex through
// Owner/LocalIndex. Range placement concatenates in worker order (already
// ascending by gid); other placements collect and sort.
func (e *Engine[V]) IDs(s *Subset) []graph.VID {
	e.checkSubset(s)
	out := make([]graph.VID, 0, s.count)
	for w := range s.local {
		s.local[w].each(func(l int) bool {
			out = append(out, e.place.GlobalID(w, l))
			return true
		})
	}
	if _, ranged := e.place.(*partition.RangePlacement); !ranged {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}
