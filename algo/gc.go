package algo

import (
	"flash"
	"flash/graph"
)

type gcProps struct {
	C      int32   // current color
	CC     int32   // candidate color this round
	Colors []int32 // colors reported by higher-ranked neighbors
}

// rankAbove reports whether s outranks d by (degree, id), the ordering the
// paper's GC and TC use for symmetry breaking.
func rankAbove[V any](s, d flash.Vertex[V]) bool {
	return s.Deg > d.Deg || (s.Deg == d.Deg && s.ID > d.ID)
}

// GC computes a greedy vertex coloring (paper Algorithm 15): every round
// each vertex collects the colors of its higher-ranked neighbors and moves
// to the smallest color not among them, until no vertex changes. The result
// is a proper coloring; the number of colors is bounded by degeneracy+1 in
// practice.
func GC(g *graph.Graph, opts ...flash.Option) ([]int32, error) {
	return run(g, opts, func(e *flash.Engine[gcProps]) ([]int32, error) {
		e.VertexMap(e.All(), nil, func(v flash.Vertex[gcProps]) gcProps {
			return gcProps{C: 0, CC: 0}
		})
		for {
			// Collect current colors of higher-ranked neighbors (reset first).
			e.VertexMap(e.All(), nil, func(v flash.Vertex[gcProps]) gcProps {
				nv := *v.Val
				nv.Colors = nil
				return nv
			})
			e.EdgeMap(e.All(), e.E(),
				func(s, d flash.Vertex[gcProps]) bool { return rankAbove(s, d) },
				func(s, d flash.Vertex[gcProps]) gcProps {
					nv := *d.Val
					nv.Colors = append(append([]int32(nil), nv.Colors...), s.Val.C)
					return nv
				},
				nil,
				func(t, cur gcProps) gcProps {
					cur.Colors = append(cur.Colors, t.Colors...)
					return cur
				},
				flash.NoSync()) // Colors is master-local (not critical, Table II)
			// Pick the smallest color unused by those neighbors and drop the
			// collected set so later syncs ship only C and CC.
			e.VertexMap(e.All(), nil, func(v flash.Vertex[gcProps]) gcProps {
				nv := *v.Val
				nv.CC = mex(nv.Colors)
				nv.Colors = nil
				return nv
			}, flash.NoSync()) // CC is read only by the master
			changed := e.VertexMap(e.All(),
				func(v flash.Vertex[gcProps]) bool { return v.Val.C != v.Val.CC },
				func(v flash.Vertex[gcProps]) gcProps {
					nv := *v.Val
					nv.C = nv.CC
					return nv
				})
			if changed.Size() == 0 {
				break
			}
		}

		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *gcProps) { out[v] = val.C })
		return out, nil
	})
}

// mex returns the minimum non-negative integer not present in xs.
func mex(xs []int32) int32 {
	used := make(map[int32]bool, len(xs))
	for _, x := range xs {
		used[x] = true
	}
	for c := int32(0); ; c++ {
		if !used[c] {
			return c
		}
	}
}

// CountColors returns the number of distinct colors in a coloring.
func CountColors(colors []int32) int {
	seen := make(map[int32]struct{})
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}
