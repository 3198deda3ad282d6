package core

import (
	"math/bits"
	"time"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/comm"
	"flash/metrics"
)

// syncScope selects how far a master update propagates.
type syncScope int

const (
	// scopeNone skips synchronization entirely (non-critical updates).
	scopeNone syncScope = iota
	// scopeNecessary sends to the precomputed mirror-holder workers only.
	scopeNecessary
	// scopeBroadcast sends to every other worker (virtual edge sets /
	// FullMirrors / ablation).
	scopeBroadcast
)

// scopeFor picks the sync scope for a step over edge set physicality.
func (e *Engine[V]) scopeFor(physical bool, noSync bool) syncScope {
	switch {
	case noSync:
		return scopeNone
	case e.cfg.FullMirrors, e.cfg.DisableNecessaryMirrors, !physical:
		return scopeBroadcast
	default:
		return scopeNecessary
	}
}

// appendKV encodes (key, *val) into the KV frame for `to`, flushing eagerly
// when BatchBytes is exceeded so transfer overlaps remaining work. The key is
// the receiver's slot in a necessary-scope sync and the gid in every other
// round. Callers must append in ascending key order per destination — the
// frame's key deltas then stay small and the message bytes are
// deterministic.
//
//flash:hotpath
func (w *worker[V]) appendKV(to int, key uint32, val *V) error {
	kw := &w.outKV[to]
	kw.Append(key, val)
	if bb := w.eng.cfg.BatchBytes; bb > 0 && kw.Len() >= bb {
		return w.send(to, kw.Take())
	}
	return nil
}

// flushAll sends every non-empty pending KV frame.
//
//flash:hotpath
func (w *worker[V]) flushAll() error {
	for to := range w.outKV {
		if w.outKV[to].Len() > 0 {
			if err := w.send(to, w.outKV[to].Take()); err != nil {
				return err
			}
		}
	}
	return nil
}

// kvDrain is a worker's KV-round decode state. The Drain handlers (gid-keyed
// records into the round's sink, slot-keyed sync records into their slots)
// and the record sinks (a synced master value into its mirror slot, a pushed
// partial folded into its pending master) are method values bound once in
// initKV; apply, foldR, decode and err describe the round in flight.
type kvDrain[V any] struct {
	r                  comm.KVReader[V]
	gidFrame           func(from int, data []byte)
	slotFrame          func(from int, data []byte)
	syncSink, foldSink func(gid graph.VID, val *V)
	apply              func(gid graph.VID, val *V)
	foldR              EdgeR[V]
	decode             time.Duration
	err                error
	samples            []int // flashdebug: mirror slots the sync round wrote
}

// initKV binds the worker's drain handlers — a KV round's and the frontier
// round's — and record sinks.
func (w *worker[V]) initKV() {
	w.kv.r.Init(w.eng.codec)
	w.kv.gidFrame = w.decodeKVFrame
	w.kv.slotFrame = w.decodeSlotFrame
	w.onFrontier = w.decodeFrontierFrame
	w.kv.syncSink = w.applyMirror
	w.kv.foldSink = w.applyPartial
	if debugChecks {
		w.kv.samples = make([]int, 0, debugSampleCap)
	}
}

// drainKV completes the current exchange round, decoding every frame with
// onFrame (kv.gidFrame hands each (gid, value) pair to apply). Wall time
// waiting on peers is recorded as communication; decode time as
// serialization. A truncated or corrupt frame is a superstep failure, not a
// panic: the remaining frames are still drained to keep the round
// consistent, and the first decode error is returned alongside transport
// failures (stall, abort). The kernels pass the handlers and sinks bound in
// w.kv, so a round allocates nothing.
//
//flash:hotpath
func (w *worker[V]) drainKV(onFrame func(from int, data []byte), apply func(gid graph.VID, val *V)) error {
	kv := &w.kv
	kv.apply, kv.decode, kv.err = apply, 0, nil
	start := time.Now()
	drainErr := w.eng.tr.Drain(w.id, onFrame)
	decode, decodeErr := kv.decode, kv.err
	kv.apply, kv.err = nil, nil
	w.rec.Durations[metrics.Communication] += time.Since(start) - decode
	w.rec.Durations[metrics.Serialization] += decode
	if drainErr != nil {
		return drainErr
	}
	return decodeErr
}

// decodeKVFrame is drainKV's gid-keyed Drain handler: it decodes one
// frame's records into the round's sink, keeping the first decode error.
//
//flash:hotpath
func (w *worker[V]) decodeKVFrame(_ int, data []byte) {
	kv := &w.kv
	dstart := time.Now()
	kv.r.Reset(data)
	for {
		vid, val, ok := kv.r.Next()
		if !ok {
			break
		}
		kv.apply(graph.VID(vid), val)
	}
	if err := kv.r.Err(); err != nil && kv.err == nil {
		kv.err = err
	}
	kv.r.Reset(nil) // the frame is recycled when the handler returns
	kv.decode += time.Since(dstart)
}

// decodeSlotFrame is drainKV's Drain handler in a necessary-scope sync: a
// record's key is the mirror's slot on this worker, so its value lands in
// cur[slot] without a lookup. A key outside the mirror slots is a corrupt
// frame, never a write.
//
//flash:hotpath
func (w *worker[V]) decodeSlotFrame(_ int, data []byte) {
	kv := &w.kv
	dstart := time.Now()
	if err := comm.DecodeSlots(w.eng.codec, data, w.cur, w.st.MasterCount()); err != nil && kv.err == nil {
		kv.err = err
	}
	if debugChecks {
		w.debugSampleSlots(data)
	}
	kv.decode += time.Since(dstart)
}

// applyMirror stores a synced master value into its mirror slot. Broadcast
// scopes can deliver masters this worker does not mirror; non-resident
// updates are dropped (the old full-size layout stored them in entries
// nothing ever read).
//
//flash:hotpath
func (w *worker[V]) applyMirror(gid graph.VID, val *V) {
	if slot, ok := w.st.Lookup(gid); ok {
		w.cur[slot] = *val
		if n := len(w.kv.samples); debugChecks && n < cap(w.kv.samples) {
			w.kv.samples = w.kv.samples[:n+1]
			w.kv.samples[n] = slot
		}
	}
}

// applyPartial folds a pushed partial into its pending master under the
// round's reduction.
//
//flash:hotpath
func (w *worker[V]) applyPartial(gid graph.VID, val *V) {
	w.foldPend(w.eng.place.LocalIndex(gid), val, w.kv.foldR)
}

// syncMasters pushes the new values of the updated local masters to the
// workers holding their mirrors (one exchange round), and applies incoming
// values from other masters to local mirrors. Must be called by every worker
// of the engine with the same scope, even when a worker updated nothing.
//
// With Threads > 1 the encode fans out over per-(thread, destination) frames
// along 64-aligned chunks of the local index space — over the bitmap form,
// which a list is converted to — and the frames are sent in fixed
// (destination, thread) order after the scan, so the per-receiver byte
// stream stays deterministic; BatchBytes overlap applies only to the
// sequential path, which walks either form.
//
//flash:hotpath
func (w *worker[V]) syncMasters(updated *members, scope syncScope) error {
	e := w.eng
	if scope != scopeNone {
		var err error
		if e.cfg.Threads > 1 {
			err = w.encodeSyncParallel(updated.bitmap(), scope)
		} else {
			err = w.encodeSyncSeq(updated, scope)
		}
		if err != nil {
			return err
		}
	}
	if err := w.flushAll(); err != nil {
		return err
	}
	if err := e.tr.EndRound(w.id); err != nil {
		return err
	}
	if debugChecks {
		w.kv.samples = w.kv.samples[:0]
	}
	onFrame := w.kv.gidFrame
	if scope == scopeNecessary {
		onFrame = w.kv.slotFrame
	}
	if err := w.drainKV(onFrame, w.kv.syncSink); err != nil {
		return err
	}
	if debugChecks {
		w.debugCheckMirrorSamples(w.kv.samples)
	}
	return nil
}

// debugSampleCap bounds how many just-synced mirrors each worker re-verifies
// per round under flashdebug.
const debugSampleCap = 64

// encodeSyncSeq is the single-threaded encode: one ascending pass over the
// updated masters, streaming into the per-destination frames (with eager
// BatchBytes flushing). A necessary-mirror sync keys a record by the
// mirror's slot on the receiver and walks the smaller of the updated set and
// the (master, mirror holder) pairs, the latter per destination, testing
// membership in the other: each destination gets the same records in the
// same order either way, and a VertexMap over all masters costs the few
// boundary vertices, not every master.
//
//flash:hotpath
func (w *worker[V]) encodeSyncSeq(updated *members, scope syncScope) error {
	e := w.eng
	sstart := time.Now()
	msgs := 0
	var sendErr error
	ship := func(l int) bool {
		if scope == scopeBroadcast {
			gid := uint32(e.place.GlobalID(w.id, l))
			for to := 0; to < e.cfg.Workers; to++ {
				if to != w.id {
					if sendErr = w.appendKV(to, gid, &w.cur[l]); sendErr != nil {
						return false
					}
					msgs++
				}
			}
		} else {
			slots := w.part.MirrorSlots(l)
			for i, to := range w.part.MirrorWorkers(l) {
				if sendErr = w.appendKV(int(to), uint32(slots[i]), &w.cur[l]); sendErr != nil {
					return false
				}
				msgs++
			}
		}
		return true
	}
	if scope == scopeNecessary && w.part.MirrorEntries() < updated.size() {
	walk:
		for to := 0; to < e.cfg.Workers; to++ {
			locals, slots := w.part.MirroredOn(to)
			for i, l := range locals {
				if updated.has(int(l)) {
					if sendErr = w.appendKV(to, uint32(slots[i]), &w.cur[l]); sendErr != nil {
						break walk
					}
					msgs++
				}
			}
		}
	} else {
		updated.each(ship)
	}
	w.rec.Durations[metrics.Serialization] += time.Since(sstart)
	w.rec.Messages += uint64(msgs)
	return sendErr
}

// encodeSyncParallel shards the encode over threads: each thread walks its
// 64-aligned chunk of the local index space in ascending order into private
// per-destination frames, then the frames ship in (destination, thread)
// order. Encoding into private frames cannot fail; send errors surface from
// the sequential ship loop.
//
//flash:hotpath
func (w *worker[V]) encodeSyncParallel(updated *bitset.Bitset, scope syncScope) error {
	e := w.eng
	sstart := time.Now()
	words := updated.Words()
	w.parforT(updated.Cap(), func(t, lo, hi int) {
		kws := w.encKV[t]
		msgs := 0
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			word := words[wi]
			base := wi << 6
			for word != 0 {
				l := base + bits.TrailingZeros64(word)
				word &= word - 1
				if scope == scopeBroadcast {
					gid := uint32(e.place.GlobalID(w.id, l))
					for to := 0; to < e.cfg.Workers; to++ {
						if to != w.id {
							kws[to].Append(gid, &w.cur[l])
							msgs++
						}
					}
				} else {
					slots := w.part.MirrorSlots(l)
					for i, to := range w.part.MirrorWorkers(l) {
						kws[to].Append(uint32(slots[i]), &w.cur[l])
						msgs++
					}
				}
			}
		}
		w.encMsgs[t] = msgs
	})
	msgs := 0
	var sendErr error
	for to := 0; to < e.cfg.Workers && sendErr == nil; to++ {
		for t := range w.encKV {
			if w.encKV[t][to].Len() > 0 {
				if sendErr = w.send(to, w.encKV[t][to].Take()); sendErr != nil {
					break
				}
			}
		}
	}
	for t := range w.encMsgs {
		msgs += w.encMsgs[t]
	}
	w.rec.Durations[metrics.Serialization] += time.Since(sstart)
	w.rec.Messages += uint64(msgs)
	return sendErr
}
