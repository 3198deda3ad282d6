//go:build flashdebug

package partition

import (
	"fmt"

	"flash/graph"
)

// DebugAssertions reports whether this binary was built with the flashdebug
// tag (runtime invariant assertions enabled).
const DebugAssertions = true

// assertResident panics when v has no slot on this worker. Slot's contract
// says "v must be resident"; in release builds a violation silently aliases
// another vertex's slot, which is exactly the bug class this assertion makes
// loud. Lookup is the sanctioned path when residency is uncertain.
func (s *SlotTable) assertResident(v graph.VID) {
	if _, ok := s.Lookup(v); !ok {
		panic(fmt.Sprintf(
			"partition: Slot(%d) on worker %d: vertex is not resident (not a local master or mirror); use Lookup",
			v, s.worker))
	}
}

// assertPullView panics unless every row entry of v is a slot of st whose
// gid in v.GIDs is the CSR's in-neighbor at that position and maps back to
// the entry through st.
func assertPullView(v *PullView, st *SlotTable, g *graph.Graph) {
	for l := 0; l < st.MasterCount(); l++ {
		for i, u := range g.InNeighbors(v.GIDs[l]) {
			x := int(v.Src[int(v.Off[l])+i])
			if x >= st.SlotCount() || v.GIDs[x] != u || st.Slot(u) != x {
				panic(fmt.Sprintf("partition: pull view of worker %d: in-edge %d of master %d holds slot %d of %d for source %d",
					st.worker, i, l, x, st.SlotCount(), u))
			}
		}
	}
}
