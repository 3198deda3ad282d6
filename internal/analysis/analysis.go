// Package analysis reproduces the static analysis the paper's code generator
// performs (§IV-B, Table II): deciding which vertex properties are
// *critical*, i.e. accessed by vertices other than their master and
// therefore in need of mirror synchronization. Non-critical properties are
// kept master-local, cutting network traffic and mirror memory (§IV-C,
// "Synchronize critical properties only").
//
// The C++ FLASH derives access patterns by analyzing generated code; in Go
// the algorithm (or the engine, observing a step's shape) records accesses
// explicitly, and the same Table II rules are applied.
package analysis

// Op is the kind of access performed on a property.
type Op int

const (
	Get Op = iota
	Put
)

// Role says whether the access touched the source or target vertex of an
// edge-map, or the single vertex of a vertex-map.
type Role int

const (
	VertexMapSelf Role = iota
	DenseSource
	DenseTarget
	SparseSource
	SparseTarget
)

// Access is one recorded property access.
type Access struct {
	Property string
	Op       Op
	Role     Role
}

// Critical applies Table II to one access: an access makes a property
// critical iff it is a get of the *source* in EDGEMAPDENSE, or a get/put of
// the *target* in EDGEMAPSPARSE. VertexMap accesses and dense-target /
// sparse-source accesses never force synchronization (the master computes
// them locally).
func Critical(a Access) bool {
	switch a.Role {
	case DenseSource:
		return a.Op == Get
	case SparseTarget:
		return true // both get and put are remote-visible
	default:
		return false
	}
}

// Report summarizes the criticality decision for a set of properties.
type Report struct {
	// CriticalSet maps property name -> whether any recorded access made it
	// critical.
	CriticalSet map[string]bool
}

// Analyze folds a program's recorded accesses into a Report.
func Analyze(accesses []Access) Report {
	r := Report{CriticalSet: make(map[string]bool)}
	for _, a := range accesses {
		if _, ok := r.CriticalSet[a.Property]; !ok {
			r.CriticalSet[a.Property] = false
		}
		if Critical(a) {
			r.CriticalSet[a.Property] = true
		}
	}
	return r
}

// AnyCritical reports whether at least one property in the report is
// critical; when false, an engine may skip mirror synchronization for the
// whole step.
func (r Report) AnyCritical() bool {
	for _, c := range r.CriticalSet {
		if c {
			return true
		}
	}
	return false
}
