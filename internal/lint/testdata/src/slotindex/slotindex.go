// Fixture for the slotindex analyzer: //flash:slot-indexed slices hold one
// entry per resident vertex and may only be indexed through the slot table.
package slotindex

import "slotindex/slotdep"

type VID uint32

type SlotTable struct{}

func (s *SlotTable) Slot(v VID) int           { return int(v) }
func (s *SlotTable) Lookup(v VID) (int, bool) { return int(v), true }

type worker struct {
	st *SlotTable
	// cur holds per-resident-vertex state in compact slot order.
	cur []float64 //flash:slot-indexed
	// scratch is plain per-worker scratch, not slot-ordered.
	scratch []float64
}

func bad(w *worker, gid VID) float64 {
	a := w.cur[gid]      // want `derived from a raw vertex id`
	b := w.cur[int(gid)] // want `derived from a raw vertex id`
	l := int(gid) + 1
	c := w.cur[l] // want `derived from a raw vertex id`
	return a + b + c
}

func good(w *worker, gid VID) float64 {
	s := w.st.Slot(gid)
	a := w.cur[s] // no diagnostic: slot-table derived
	if slot, ok := w.st.Lookup(gid); ok {
		a += w.cur[slot] // no diagnostic: Lookup result
	}
	a += w.cur[0] // no diagnostic: constant index
	for i := range w.cur {
		a += w.cur[i] // no diagnostic: index from ranging the slice itself
	}
	a += w.scratch[int(gid)] // no diagnostic: slice is not tagged
	return a
}

// Cross-package derivation: slotdep.AsIndex derives its result from the raw
// vertex id (per its summary), so the index is still raw even though the
// call crosses a package boundary.
func crossPackage(w *worker, gid VID) float64 {
	return w.cur[slotdep.AsIndex(slotdep.VID(gid))] // want `derived from a raw vertex id`
}
