package partition

import (
	"fmt"
	"slices"
	"testing"

	"flash/graph"
)

// TestMirrorTableMatchesInversion pins the CSR necessary-mirror tables to the
// per-master lists they replace: inverting every worker's mirror set, in
// ascending worker order, must give each master exactly the workers
// MirrorWorkers lists, with the mirror's slot on each in MirrorSlots, and
// MirroredOn(to) must list, ascending, exactly the masters mirrored on to
// with those same slots.
func TestMirrorTableMatchesInversion(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.GenGrid(40, 30, 0, 1),
		"rmat": graph.GenRMAT(2048, 16384, 7),
	}
	for gname, g := range graphs {
		n := g.NumVertices()
		for _, hash := range []bool{false, true} {
			for _, m := range []int{2, 4} {
				place := Placement(NewRange(n, m))
				if hash {
					place = NewHash(n, m)
				}
				t.Run(fmt.Sprintf("%s/hash=%v/w%d", gname, hash, m), func(t *testing.T) {
					p := New(g, place)
					want := make([][][]int32, m)
					for w := range want {
						want[w] = make([][]int32, place.LocalCount(w))
					}
					for w, part := range p.Parts {
						part.Mirrors.Range(func(v int) bool {
							ow, li := place.Owner(graph.VID(v)), place.LocalIndex(graph.VID(v))
							want[ow][li] = append(want[ow][li], int32(w))
							return true
						})
					}
					entries := 0
					for w, part := range p.Parts {
						wantOn := make([][2][]int32, m)
						for l, ws := range want[w] {
							if got := part.MirrorWorkers(l); !slices.Equal(got, ws) {
								t.Fatalf("worker %d master %d: MirrorWorkers = %v, want %v", w, l, got, ws)
							}
							for i, to := range ws {
								slot := p.Parts[to].Slots.Slot(place.GlobalID(w, l))
								if got := part.MirrorSlots(l)[i]; int(got) != slot {
									t.Fatalf("worker %d master %d: slot on worker %d = %d, want %d", w, l, to, got, slot)
								}
								wantOn[to][0] = append(wantOn[to][0], int32(l))
								wantOn[to][1] = append(wantOn[to][1], int32(slot))
							}
							entries += len(ws)
						}
						for to := range wantOn {
							locals, slots := part.MirroredOn(to)
							if !slices.Equal(locals, wantOn[to][0]) || !slices.Equal(slots, wantOn[to][1]) {
								t.Fatalf("worker %d: MirroredOn(%d) lists %d masters, want %d", w, to, len(locals), len(wantOn[to][0]))
							}
							if !slices.IsSorted(slots) {
								t.Fatalf("worker %d: slots on worker %d not ascending", w, to)
							}
						}
					}
					total := 0
					for _, part := range p.Parts {
						total += part.MirrorEntries()
					}
					if total != entries {
						t.Fatalf("MirrorEntries sum to %d, want %d", total, entries)
					}
					if err := p.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
