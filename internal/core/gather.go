package core

import (
	"encoding/binary"
	"fmt"

	"flash/graph"
)

// Get returns v's current state as held by its master. It is FLASHWARE's
// get(id) for driver-side result extraction and for algorithms that read
// arbitrary vertices between supersteps (requires FullMirrors only when
// called from inside step callbacks via Ctx; this driver-side form is always
// exact). The value is an outcome, logged and popped like a Gather's.
func (e *Engine[V]) Get(v graph.VID) V {
	e.checkVertex(v)
	var val V
	e.valueOutcome(logKindGet, 1, func(int) *V {
		if e.resident >= 0 && e.place.Owner(v) != e.resident {
			panic(fmt.Sprintf("core: Get(%d) in cluster mode: vertex is mastered by worker %d, this process is worker %d (use Gather/Fold)",
				v, e.place.Owner(v), e.resident))
		}
		return &e.workers[e.place.Owner(v)].cur[e.place.LocalIndex(v)]
	}, func(_ int, got *V) { val = *got })
	return val
}

// Set overwrites v's state on its master and on every worker currently
// holding a mirror of it. It runs between supersteps (driver-side) and is
// intended for seeding initial values cheaper than a VertexMap.
func (e *Engine[V]) Set(v graph.VID, val V) {
	e.checkVertex(v)
	if e.fastForward() {
		return // the restored image holds the write
	}
	for _, w := range e.workers {
		if w.cur == nil {
			continue // cluster shell: the owning process seeds its own copy
		}
		if slot, ok := w.st.Lookup(v); ok {
			w.cur[slot] = val
		}
	}
}

// Gather calls f for every vertex in ascending id order with the master's
// current state. Driver-side. The value array is an outcome, logged and
// popped like a superstep's output subset.
func (e *Engine[V]) Gather(f func(v graph.VID, val *V)) {
	var vals []V
	e.valueOutcome(logKindGather, e.g.NumVertices(), func(v int) *V { return e.master(v, &vals) },
		func(v int, val *V) { f(graph.VID(v), val) })
}

// master returns vertex v's live master state. A cluster process reads it
// from *vals, the masters it allgathers on first use.
func (e *Engine[V]) master(v int, vals *[]V) *V {
	if e.resident >= 0 {
		if *vals == nil {
			*vals = e.allgather()
		}
		return &(*vals)[v]
	}
	return &e.workers[e.place.Owner(graph.VID(v))].cur[e.place.LocalIndex(graph.VID(v))]
}

// Fold accumulates a driver-side reduction over all masters' states.
func Fold[V, T any](e *Engine[V], init T, f func(acc T, v graph.VID, val *V) T) T {
	acc := init
	e.Gather(func(v graph.VID, val *V) {
		acc = f(acc, v, val)
	})
	return acc
}

// Sum adds f over all masters' states in ascending id order. Its outcome is
// the sum itself, not the value array a Fold logs, so a driver that sums
// every iteration grows the log by eight bytes a call.
func Sum[V any, T int64 | float64](e *Engine[V], f func(v graph.VID, val *V) T) T {
	var sum T
	if rec, ok := e.popOutcome(logKindSum); ok {
		if k, err := binary.Decode(rec.payload, binary.LittleEndian, &sum); err != nil || k != len(rec.payload) {
			e.abort(fmt.Errorf("core: sum outcome record has %d bytes, want %d", len(rec.payload), binary.Size(sum)))
		}
		return sum
	}
	var vals []V
	for v := 0; v < e.g.NumVertices(); v++ {
		sum += f(graph.VID(v), e.master(v, &vals))
	}
	if e.logging() {
		buf, _ := binary.Append(nil, binary.LittleEndian, sum) // fixed-size T: never fails
		e.logOutcome(logKindSum, buf)
	}
	return sum
}

// CheckMirrorCoherence verifies that every mirror equals its master's state
// according to eq. Tests call it after supersteps to assert the §IV-A
// consistency invariant ("the current states of a vertex are ensured to be
// consistent on all workers who access it").
func (e *Engine[V]) CheckMirrorCoherence(eq func(a, b V) bool) error {
	if e.resident >= 0 {
		// Cluster mode: masters live in peer processes, so the invariant is
		// not checkable locally. The cross-process golden tests compare full
		// results instead.
		return nil
	}
	for _, w := range e.workers {
		var err error
		w.part.Mirrors.Range(func(v int) bool {
			master := e.workers[e.place.Owner(graph.VID(v))].cur[e.place.LocalIndex(graph.VID(v))]
			if !eq(w.cur[w.st.Slot(graph.VID(v))], master) {
				err = &CoherenceError{Worker: w.id, Vertex: graph.VID(v)}
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CoherenceError reports a mirror that diverged from its master.
type CoherenceError struct {
	Worker int
	Vertex graph.VID
}

func (e *CoherenceError) Error() string {
	return fmt.Sprintf("core: mirror of vertex %d on worker %d diverged from master", e.Vertex, e.Worker)
}
