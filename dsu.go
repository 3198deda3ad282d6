package flash

// DSU is the disjoint-set (union–find) structure the paper provides as a
// pre-defined helper (dsu, dsu_find, dsu_union) for algorithms such as
// biconnected components and minimum spanning forest. It is a driver-side
// sequential structure used between supersteps, exactly as in the paper's
// Algorithm 19 and Algorithm 21.
type DSU struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewDSU returns a DSU over n singleton sets {0} .. {n-1}.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]int8, n), sets: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set (with path halving).
func (d *DSU) Find(x VID) VID {
	i := int32(x)
	for d.parent[i] != i {
		d.parent[i] = d.parent[d.parent[i]]
		i = d.parent[i]
	}
	return VID(i)
}

// Union merges the sets of a and b and reports whether they were distinct.
func (d *DSU) Union(a, b VID) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	d.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b VID) bool { return d.Find(a) == d.Find(b) }

// Sets returns the number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }
