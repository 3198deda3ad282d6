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

// appendKV encodes (gid, *val) into the KV frame for `to`, flushing eagerly
// when BatchBytes is exceeded so transfer overlaps remaining work. Callers
// must append in ascending gid order per destination — the frame's vid
// deltas then stay small and the message bytes are deterministic.
//
//flash:hotpath
//flash:deterministic
//flash:phase(ship,sync)
func (w *worker[V]) appendKV(to int, gid graph.VID, val *V) error {
	kw := &w.outKV[to]
	kw.Append(uint32(gid), val)
	if bb := w.eng.cfg.BatchBytes; bb > 0 && kw.Len() >= bb {
		return w.send(to, kw.Take())
	}
	return nil
}

// flushAll sends every non-empty pending KV frame.
//
//flash:hotpath
//flash:deterministic
//flash:phase(ship,sync)
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

// drainKV completes the current exchange round, decoding (gid, value) pairs
// and handing them to apply. Wall time waiting on peers is recorded as
// communication; decode time as serialization. A truncated or corrupt frame
// is a superstep failure, not a panic: the remaining frames are still
// drained to keep the round consistent, and the first decode error is
// returned alongside transport failures (stall, abort).
//
//flash:hotpath
//flash:phase(ship,sync)
func (w *worker[V]) drainKV(apply func(gid graph.VID, val *V)) error {
	var decode time.Duration
	var decodeErr error
	codec := w.eng.codec
	start := time.Now()
	drainErr := w.eng.tr.Drain(w.id, func(_ int, data []byte) {
		dstart := time.Now()
		if err := comm.DecodeKV(codec, data, func(vid uint32, val *V) {
			apply(graph.VID(vid), val)
		}); err != nil && decodeErr == nil {
			decodeErr = err
		}
		decode += time.Since(dstart)
	})
	w.met.Add(metrics.Communication, time.Since(start)-decode)
	w.met.Add(metrics.Serialization, decode)
	if drainErr != nil {
		return drainErr
	}
	return decodeErr
}

// syncMasters pushes the new values of the updated local masters to the
// workers holding their mirrors (one exchange round), and applies incoming
// values from other masters to local mirrors. Must be called by every worker
// of the engine with the same scope, even when a worker updated nothing.
//
// With Threads > 1 the encode fans out over per-(thread, destination) frames
// along 64-aligned chunks of the local index space and the frames are sent
// in fixed (destination, thread) order after the scan, so the per-receiver
// byte stream stays deterministic; BatchBytes overlap applies only to the
// sequential path.
//
//flash:hotpath
//flash:deterministic
//flash:phase(sync)
func (w *worker[V]) syncMasters(updated *bitset.Bitset, scope syncScope) error {
	e := w.eng
	if scope != scopeNone {
		var err error
		if e.cfg.Threads > 1 {
			err = w.encodeSyncParallel(updated, scope)
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
	// Broadcast scopes can deliver masters this worker does not mirror;
	// non-resident updates are dropped (the old full-size layout stored
	// them in entries nothing ever read).
	var samples []debugSample
	if debugChecks {
		samples = make([]debugSample, 0, debugSampleCap)
	}
	err := w.drainKV(func(gid graph.VID, val *V) {
		if slot, ok := w.st.Lookup(gid); ok {
			w.cur[slot] = *val
			if debugChecks && len(samples) < debugSampleCap {
				samples = append(samples, debugSample{gid: gid, slot: slot})
			}
		}
	})
	if err != nil {
		return err
	}
	if debugChecks {
		w.debugCheckMirrorSamples(samples)
	}
	return nil
}

// debugSample is one (gid, mirror slot) pair recorded during the sync drain
// for the flashdebug coherence spot check; see debugCheckMirrorSamples.
type debugSample struct {
	gid  graph.VID
	slot int
}

// debugSampleCap bounds how many just-synced mirrors each worker re-verifies
// per round under flashdebug.
const debugSampleCap = 64

// encodeSyncSeq is the single-threaded encode: one ascending pass over the
// updated masters, streaming into the per-destination frames (with eager
// BatchBytes flushing).
//
//flash:hotpath
//flash:deterministic
//flash:phase(sync)
func (w *worker[V]) encodeSyncSeq(updated *bitset.Bitset, scope syncScope) error {
	e := w.eng
	sstart := time.Now()
	msgs := 0
	var sendErr error
	updated.Range(func(l int) bool {
		gid := e.place.GlobalID(w.id, l)
		if scope == scopeBroadcast {
			for to := 0; to < e.cfg.Workers; to++ {
				if to != w.id {
					if sendErr = w.appendKV(to, gid, &w.cur[l]); sendErr != nil {
						return false
					}
					msgs++
				}
			}
		} else {
			for _, to := range w.part.MirrorWorkers[l] {
				if sendErr = w.appendKV(to, gid, &w.cur[l]); sendErr != nil {
					return false
				}
				msgs++
			}
		}
		return true
	})
	w.met.Add(metrics.Serialization, time.Since(sstart))
	w.met.AddTraffic(uint64(msgs), 0)
	return sendErr
}

// encodeSyncParallel shards the encode over threads: each thread walks its
// 64-aligned chunk of the local index space in ascending order into private
// per-destination frames, then the frames ship in (destination, thread)
// order. Encoding into private frames cannot fail; send errors surface from
// the sequential ship loop.
//
//flash:hotpath
//flash:deterministic
//flash:phase(sync)
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
				gid := e.place.GlobalID(w.id, l)
				if scope == scopeBroadcast {
					for to := 0; to < e.cfg.Workers; to++ {
						if to != w.id {
							kws[to].Append(uint32(gid), &w.cur[l])
							msgs++
						}
					}
				} else {
					for _, to := range w.part.MirrorWorkers[l] {
						kws[to].Append(uint32(gid), &w.cur[l])
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
	w.met.Add(metrics.Serialization, time.Since(sstart))
	w.met.AddTraffic(uint64(msgs), 0)
	return sendErr
}
