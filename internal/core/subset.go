package core

import (
	"fmt"
	"sort"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/partition"
)

// Subset is the paper's vertexSubset: a distributed set of vertex ids. Each
// worker holds the members among its masters as a bitset over local indices
// (§IV-A, "a worker simply maintains a set of vertex ids, representing the
// master vertices in the set that locate on it").
type Subset struct {
	owner anyEngine
	local []*bitset.Bitset
	count int
	// epoch is the membership epoch the per-worker bitsets are laid out
	// under. A subset held across an Engine.Resize goes stale; checkSubset
	// remaps it into the current epoch before any primitive touches it.
	epoch int
}

// anyEngine lets Subset validate that handles are not mixed across engines
// without making Subset generic.
type anyEngine interface{ engineTag() }

func (e *Engine[V]) engineTag() {}

func (e *Engine[V]) newSubset() *Subset { return e.subsetAt(e.memberEpoch) }

// subsetAt returns an empty subset laid out under membership epoch.
func (e *Engine[V]) subsetAt(epoch int) *Subset {
	place := e.placeHist[epoch]
	s := &Subset{owner: e, local: make([]*bitset.Bitset, place.Workers()), epoch: epoch}
	for w := range s.local {
		s.local[w] = bitset.New(place.LocalCount(w))
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

// remapSubset rewrites a stale subset's per-worker bitsets from the placement
// it was built under into the current one: each member decodes to its global
// id through the recorded epoch's placement and re-encodes through the
// current Owner/LocalIndex. Membership (and therefore count) is unchanged —
// only the distribution of the bits over workers moves.
func (e *Engine[V]) remapSubset(s *Subset) {
	oldPlace := e.placeHist[s.epoch]
	local := make([]*bitset.Bitset, e.cfg.Workers)
	for w := range local {
		local[w] = bitset.New(e.place.LocalCount(w))
	}
	for w := range s.local {
		w := w
		s.local[w].Range(func(l int) bool {
			gid := oldPlace.GlobalID(w, l)
			local[e.place.Owner(gid)].Set(e.place.LocalIndex(gid))
			return true
		})
	}
	s.local = local
	s.epoch = e.memberEpoch
}

// recount refreshes the cached cardinality.
func (s *Subset) recount() {
	c := 0
	for _, b := range s.local {
		c += b.Count()
	}
	s.count = c
}

// Size returns |U| (the paper's SIZE primitive).
func (s *Subset) Size() int { return s.count }

// Contains reports membership of v.
func (e *Engine[V]) Contains(s *Subset, v graph.VID) bool {
	e.checkSubset(s)
	e.checkVertex(v)
	w := e.place.Owner(v)
	return s.local[w].Test(e.place.LocalIndex(v))
}

// Add inserts v (the paper's ADD auxiliary operator).
func (e *Engine[V]) Add(s *Subset, v graph.VID) {
	e.checkSubset(s)
	e.checkVertex(v)
	w := e.place.Owner(v)
	if !s.local[w].TestAndSet(e.place.LocalIndex(v)) {
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
	for _, b := range s.local {
		b.Fill()
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
func (e *Engine[V]) Union(a, b *Subset) *Subset {
	e.checkSubset(a)
	e.checkSubset(b)
	out := e.newSubset()
	for w := range out.local {
		out.local[w].CopyFrom(a.local[w])
		out.local[w].Union(b.local[w])
	}
	out.recount()
	return out
}

// Minus returns a \ b (paper's MINUS).
func (e *Engine[V]) Minus(a, b *Subset) *Subset {
	e.checkSubset(a)
	e.checkSubset(b)
	out := e.newSubset()
	for w := range out.local {
		out.local[w].CopyFrom(a.local[w])
		out.local[w].Minus(b.local[w])
	}
	out.recount()
	return out
}

// Intersect returns a ∩ b (paper's INTERSACT).
func (e *Engine[V]) Intersect(a, b *Subset) *Subset {
	e.checkSubset(a)
	e.checkSubset(b)
	out := e.newSubset()
	for w := range out.local {
		out.local[w].CopyFrom(a.local[w])
		out.local[w].Intersect(b.local[w])
	}
	out.recount()
	return out
}

// IDs returns all member ids in ascending order (driver-side; intended for
// result extraction and tests). It walks the per-worker membership bitsets —
// O(members + bitmap words) — instead of probing every vertex through
// Owner/LocalIndex. Range placement concatenates in worker order (already
// ascending by gid); other placements collect and sort.
func (e *Engine[V]) IDs(s *Subset) []graph.VID {
	e.checkSubset(s)
	out := make([]graph.VID, 0, s.count)
	for w := range s.local {
		w := w
		s.local[w].Range(func(l int) bool {
			out = append(out, e.place.GlobalID(w, l))
			return true
		})
	}
	if _, ranged := e.place.(*partition.RangePlacement); !ranged {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}
