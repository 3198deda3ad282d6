//go:build flashdebug

package core

import (
	"bytes"
	"fmt"
)

// debugChecks enables the post-sync mirror-coherence spot check (and any
// other flashdebug-only engine assertions).
const debugChecks = true

// debugCheckMirrorSamples verifies, for a sample of the mirror slots this
// worker just wrote in syncMasters' drain, that the stored value is
// byte-identical (under the engine codec) to the owning worker's master
// value. A mismatch means a slot-aliasing or codec round-trip bug.
//
// Safe to run concurrently with the other workers finishing their own
// syncMasters: drainKV returning means every peer passed EndRound, and a
// peer's master region is final by then — during the sync round peers write
// only their mirror slots (a master's owner never receives its own gid), and
// syncMasters is the last statement of every phase closure, so no master
// mutates again until parallelWorkers joins.
func (w *worker[V]) debugCheckMirrorSamples(slots []int) {
	e := w.eng
	if e.resident >= 0 {
		// Cluster mode: the masters live in peer processes, so there is no
		// local truth to compare the just-synced mirrors against.
		return
	}
	var mine, theirs []byte
	for _, slot := range slots {
		gid := w.st.GID(slot)
		owner := e.place.Owner(gid)
		if owner == w.id {
			panic(fmt.Sprintf("flashdebug: worker %d received its own master %d in a sync round", w.id, gid))
		}
		peer := e.workers[owner]
		mine = e.codec.Append(mine[:0], &w.cur[slot])
		theirs = e.codec.Append(theirs[:0], &peer.cur[peer.st.Slot(gid)])
		if !bytes.Equal(mine, theirs) {
			panic(fmt.Sprintf(
				"flashdebug: mirror incoherent after sync: vertex %d on worker %d (slot %d) encodes %x, master on worker %d encodes %x",
				gid, w.id, slot, mine, owner, theirs))
		}
	}
}

// debugSampleSlots records, up to the sample cap, the mirrors a slot-keyed
// sync frame wrote, for debugCheckMirrorSamples: decodeSlotFrame stores the
// records without a callback, so the frame is read a second time here.
//
//flash:hotpath
func (w *worker[V]) debugSampleSlots(data []byte) {
	r := &w.kv.r
	r.Reset(data)
	for n := len(w.kv.samples); n < cap(w.kv.samples); n++ {
		slot, _, ok := r.Next()
		if !ok {
			break
		}
		w.kv.samples = w.kv.samples[:n+1]
		w.kv.samples[n] = int(slot)
	}
	r.Reset(nil)
}

// debugCheckBoundary asserts the invariants of the two subset forms at a
// superstep boundary: every list share of the step's output is strictly
// ascending, below its worker's LocalCount and within listMax, and every
// worker this process computes has empty sparse-kernel state — acc[0].set,
// pendSet and both touched lists — since a sparse step clears what it
// touched instead of resetting the bitmaps up front.
func (e *Engine[V]) debugCheckBoundary(out *Subset) {
	place := e.placeHist[out.epoch]
	for wi := range out.local {
		m := &out.local[wi]
		if m.n != place.LocalCount(wi) {
			panic(fmt.Sprintf("flashdebug: worker %d subset share sized %d, LocalCount is %d", wi, m.n, place.LocalCount(wi)))
		}
		if m.bits != nil {
			continue
		}
		if len(m.list) > listMax(m.n) {
			panic(fmt.Sprintf("flashdebug: worker %d subset list holds %d members, crossover is %d", wi, len(m.list), listMax(m.n)))
		}
		for i, l := range m.list {
			if l < 0 || int(l) >= m.n || (i > 0 && l <= m.list[i-1]) {
				panic(fmt.Sprintf("flashdebug: worker %d subset list entry %d = %d is out of order or range [0,%d)", wi, i, l, m.n))
			}
		}
	}
	for _, w := range e.workers {
		if w.cur == nil {
			continue // cluster shell: its state lives in a peer process
		}
		if !w.acc[0].set.Empty() || !w.pendSet.Empty() || len(w.accList) != 0 || len(w.pendList) != 0 || w.accOver || w.pendOver {
			panic(fmt.Sprintf("flashdebug: worker %d sparse-kernel state not empty at a superstep boundary (acc %d, pend %d, lists %d/%d)",
				w.id, w.acc[0].set.Count(), w.pendSet.Count(), len(w.accList), len(w.pendList)))
		}
	}
}
