package partition

import (
	"fmt"
	"slices"
	"testing"

	"flash/graph"
)

// TestMirrorTableMatchesInversion pins the CSR necessary-mirror table to the
// per-master lists it replaces: inverting every worker's mirror set, in
// ascending worker order, must give each master exactly the workers
// MirrorWorkers lists, and Mirrored must list exactly the masters whose list
// is non-empty, ascending.
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
					for w, part := range p.Parts {
						var mirrored []int32
						for l, ws := range want[w] {
							if got := part.MirrorWorkers(l); !slices.Equal(got, ws) {
								t.Fatalf("worker %d master %d: MirrorWorkers = %v, want %v", w, l, got, ws)
							}
							if len(ws) > 0 {
								mirrored = append(mirrored, int32(l))
							}
						}
						if !slices.Equal(part.Mirrored(), mirrored) {
							t.Fatalf("worker %d: Mirrored lists %d masters, want %d", w, len(part.Mirrored()), len(mirrored))
						}
					}
				})
			}
		}
	}
}
