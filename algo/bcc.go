package algo

import (
	"flash"
	"flash/graph"
)

type bccProps struct {
	CID int32 // connected-component label (min id)
	Dis int32 // BFS level within the component
	P   int32 // BFS tree parent
	BCC int32 // biconnected-component label of the tree edge (P, v)
}

// BCCResult labels each non-root vertex v with the biconnected component of
// its BFS tree edge (parent(v), v); roots (one per connected component) get
// label -1. Two tree edges are in the same biconnected component iff their
// lower endpoints share a label.
type BCCResult struct {
	Labels  []int32
	Parents []int32
	Levels  []int32
}

// BCC computes biconnected components with the BFS-tree + disjoint-set
// algorithm the paper implements (Algorithm 19, after Slota et al.): a CC
// pass elects one root per component, a multi-source BFS builds a spanning
// tree, and then every non-tree edge merges the tree edges along the
// fundamental cycle it closes, using the paper's pre-defined dsu helpers on
// the driver. Each vertex represents its parent tree edge, so articulation
// points separate cleanly.
func BCC(g *graph.Graph, opts ...flash.Option) (BCCResult, error) {
	return run(g, opts, func(e *flash.Engine[bccProps]) (BCCResult, error) {
		// CC round: min-label propagation elects component roots.
		u := e.VertexMap(e.All(), nil, func(v flash.Vertex[bccProps]) bccProps {
			return bccProps{CID: int32(v.ID), Dis: none, P: none, BCC: none}
		})
		for u.Size() != 0 {
			u = e.EdgeMap(u, e.E(),
				func(s, d flash.Vertex[bccProps]) bool { return s.Val.CID < d.Val.CID },
				func(s, d flash.Vertex[bccProps]) bccProps {
					nv := *d.Val
					if s.Val.CID < nv.CID {
						nv.CID = s.Val.CID
					}
					return nv
				},
				nil,
				func(t, cur bccProps) bccProps {
					if t.CID < cur.CID {
						cur.CID = t.CID
					}
					return cur
				})
		}
		// BFS round from every component root simultaneously.
		u = e.VertexMap(e.All(),
			func(v flash.Vertex[bccProps]) bool { return v.Val.CID == int32(v.ID) },
			func(v flash.Vertex[bccProps]) bccProps {
				nv := *v.Val
				nv.Dis = 0
				return nv
			})
		for u.Size() != 0 {
			u = e.EdgeMap(u, e.E(),
				nil,
				func(s, d flash.Vertex[bccProps]) bccProps {
					nv := *d.Val
					nv.Dis = s.Val.Dis + 1
					return nv
				},
				func(d flash.Vertex[bccProps]) bool { return d.Val.Dis == none },
				func(t, cur bccProps) bccProps { return t })
		}
		// Parent assignment: any neighbor one level up.
		e.EdgeMap(e.All(), e.E(),
			func(s, d flash.Vertex[bccProps]) bool { return s.Val.Dis == d.Val.Dis-1 },
			func(s, d flash.Vertex[bccProps]) bccProps {
				nv := *d.Val
				nv.P = int32(s.ID)
				return nv
			},
			func(d flash.Vertex[bccProps]) bool { return d.Val.P == none },
			func(t, cur bccProps) bccProps { return t })

		// Driver side: join non-tree edges with the paper's dsu helpers. Each
		// vertex stands for its parent tree edge; walking the fundamental cycle
		// of every non-tree edge merges its tree edges into one set.
		n := g.NumVertices()
		dis := make([]int32, n)
		par := make([]int32, n)
		e.Gather(func(v graph.VID, val *bccProps) {
			dis[v] = val.Dis
			par[v] = val.P
		})
		f := flash.NewDSU(n)
		g.Edges(func(a, b graph.VID, _ float32) bool {
			if a >= b || par[a] == int32(b) || par[b] == int32(a) {
				return true // one direction only; skip tree edges
			}
			// The fundamental cycle's tree edges are (par[x], x) for every x on
			// the tree paths a..LCA and b..LCA, excluding the LCA itself. Union
			// all their representatives (the lower endpoints). The anchor is the
			// deeper endpoint, which can never be the LCA.
			anchor := a
			if dis[b] > dis[a] {
				anchor = b
			}
			x, y := a, b
			for x != y {
				if dis[x] >= dis[y] {
					f.Union(anchor, x)
					x = graph.VID(par[x])
				} else {
					f.Union(anchor, y)
					y = graph.VID(par[y])
				}
			}
			return true
		})

		res := BCCResult{
			Labels:  make([]int32, n),
			Parents: par,
			Levels:  dis,
		}
		for v := 0; v < n; v++ {
			if par[v] == none {
				res.Labels[v] = -1 // component root: no parent tree edge
			} else {
				res.Labels[v] = int32(f.Find(graph.VID(v)))
			}
		}
		return res, nil
	})
}

// CountBCCs returns the number of biconnected components in a result:
// distinct labels over non-root vertices.
func CountBCCs(r BCCResult) int {
	seen := make(map[int32]struct{})
	for v, l := range r.Labels {
		if r.Parents[v] != none && l != -1 {
			seen[l] = struct{}{}
		}
	}
	return len(seen)
}
