package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"flash/graph"
	"flash/internal/comm"
	"flash/metrics"
)

// Callback types for EdgeMap, mirroring the paper's signatures with the edge
// weight added (unweighted graphs pass 0):
//
//	F(s, d, w) bool — edge guard, checked per active edge
//	M(s, d, w) V    — returns the tentative new value of the target d
//	C(d) bool       — target pre-condition ("update at most once" helper)
//	R(t, cur) V     — associative+commutative reduction of a tentative value
//	                  into the target's accumulated value (push mode only)
type (
	EdgeF[V any] func(s, d Vtx[V], w float32) bool
	EdgeM[V any] func(s, d Vtx[V], w float32) V
	EdgeC[V any] func(d Vtx[V]) bool
	EdgeR[V any] func(t V, cur V) V
)

// EdgeMap is the paper's EDGEMAP: it applies M over the active edges
// {(s,d) ∈ H | s ∈ U ∧ C(d)} that pass F and returns the subset of updated
// targets. The propagation mode is chosen by the density rule unless forced
// by opts.Mode or the engine configuration; a nil R forces pull mode
// (§III-A).
func (e *Engine[V]) EdgeMap(U *Subset, H EdgeSet[V], F EdgeF[V], M EdgeM[V], C EdgeC[V], R EdgeR[V], opts StepOpts) *Subset {
	e.checkSubset(U)
	mode := opts.Mode
	if mode == Auto {
		mode = e.cfg.Mode
	}
	if mode == Auto {
		switch {
		case R == nil:
			mode = Pull
		case !H.SupportsIn():
			mode = Push
		case !H.SupportsOut():
			mode = Pull
		default:
			if e.isDense(U, H) {
				mode = Pull
			} else {
				mode = Push
			}
		}
	}
	if mode == Pull {
		return e.EdgeMapDense(U, H, F, M, C, opts)
	}
	return e.EdgeMapSparse(U, H, F, M, C, R, opts)
}

// denseThreshold is Ligra's density denominator, the value the paper and both
// baseline engines use.
const denseThreshold = 20

// isDense applies Ligra's density rule: |U| + outDegree(U) > |E|/20.
// The degree sum runs driver-side and early-exits the moment the running sum
// crosses the budget: small frontiers cost O(|U|) O(1) hint calls and no
// worker fan-out, and even the worst case stops after at most budget+1 hint
// visits instead of always touching every member on every Auto-mode EdgeMap.
func (e *Engine[V]) isDense(U *Subset, H EdgeSet[V]) bool {
	budget := e.g.NumEdges() / denseThreshold
	if U.Size() > budget {
		return true
	}
	sum := U.Size()
	for _, w := range e.workers {
		w := w
		U.local[w.id].Range(func(l int) bool {
			sum += H.OutDegreeHint(&w.ctxs[0], e.place.GlobalID(w.id, l))
			return sum <= budget
		})
		if sum > budget {
			return true
		}
	}
	return false
}

// EdgeMapSparse is the push kernel (paper Algorithm 6 + §IV-A's three-phase
// distributed procedure): active masters push tentative values along their
// H-out-edges; per-target partials are reduced locally, shipped to the
// target's master, reduced again with the current value, applied, and the
// final values are synchronized back to mirrors. Two exchange rounds.
//
//flash:hotpath
//flash:deterministic
func (e *Engine[V]) EdgeMapSparse(U *Subset, H EdgeSet[V], F EdgeF[V], M EdgeM[V], C EdgeC[V], R EdgeR[V], opts StepOpts) *Subset {
	e.checkSubset(U)
	if R == nil {
		panic("core: EdgeMapSparse requires a reduce function R")
	}
	if !H.SupportsOut() {
		panic("core: edge set does not support push mode")
	}
	if !H.Physical() && !e.cfg.FullMirrors {
		panic("core: virtual edge sets require Config.FullMirrors (communication beyond neighborhood)")
	}
	if e.bg != nil {
		e.met.AddBlockSteps(0, 1)
	}
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(H.Physical(), opts.NoSync)
		return e.parallelWorkers(func(w *worker[V]) error {
			membership := U.local[w.id]
			// Out-of-core: plan the sparse superstep's block working set from
			// the frontier before any edge is touched, and flush the cache
			// counters into the metric shard however the step ends.
			w.planSparseBlocks(membership)
			defer w.flushBlockStats()

			// Phase 1: push along out-edges, accumulating per-target partials
			// into per-thread shards indexed by slot (every push target of a
			// physical set is a local master or mirror; virtual sets run
			// under FullMirrors where every vertex is resident) — no locks on
			// the per-edge path. The push closure is hoisted out of the
			// source loop (one allocation per chunk, not per source).
			w.acc[0].set.Reset()
			w.timeBlock(metrics.Compute, func() {
				visitor := func(thread int) func(l int) {
					a, c := &w.acc[thread], &w.ctxs[thread]
					var uv Vtx[V]
					push := func(d graph.VID, wt float32) bool {
						ds := w.st.Slot(d)
						dv := w.vtxAt(d, &w.cur[ds])
						if C != nil && !C(dv) {
							return true
						}
						if F != nil && !F(uv, dv, wt) {
							return true
						}
						t := M(uv, dv, wt)
						if a.set.TestAndSet(ds) {
							a.val[ds] = R(t, a.val[ds])
						} else {
							a.val[ds] = t
						}
						return true
					}
					return func(l int) {
						u := e.place.GlobalID(w.id, l)
						uv = w.vtxMaster(u, l)
						H.Out(c, u, push)
					}
				}
				// Density rule as in forEachMember, plus an edge-work floor:
				// the parallel path materializes Threads-1 slot-sized shards
				// and pays an O(SlotCount) merge scan per shard, so it only
				// engages when this worker's pushed-edge work amortizes that
				// cost. Auto-mode sparse frontiers carry at most
				// |E|/denseThreshold edges (bigger ones go dense), so on most
				// graphs only forced-push workloads ever materialize the
				// extra shards.
				parallel := false
				if e.cfg.Threads > 1 && U.Size()*16 >= membership.Cap() {
					floor := w.st.SlotCount()
					work := 0
					membership.Range(func(l int) bool {
						work += H.OutDegreeHint(&w.ctxs[0], e.place.GlobalID(w.id, l))
						return work < floor
					})
					parallel = work >= floor
				}
				if !parallel {
					f := visitor(0)
					membership.Range(func(l int) bool {
						f(l)
						return true
					})
				} else {
					w.ensureAccShards()
					w.parforT(membership.Cap(), func(t, lo, hi int) {
						f := visitor(t)
						for l := lo; l < hi; l++ {
							if membership.Test(l) {
								f(l)
							}
						}
					})
					w.mergeAcc(R)
				}
			})

			// Phase 2: route partials to target masters (exchange round 1).
			// The master region of the slot space folds locally (slot ==
			// local index); the mirror region walks the mirror bitmap in
			// ascending gid order, so every destination's frame carries
			// sorted vids: message bytes are deterministic and the delta
			// encoding stays tight.
			w.pendSet.Reset()
			sstart := time.Now()
			msgs := 0
			var sendErr error
			acc := &w.acc[0]
			masters := w.st.MasterCount()
			accWords := acc.set.Words()
			foldWord := func(word uint64, base int) {
				for word != 0 {
					l := base + bits.TrailingZeros64(word)
					word &= word - 1
					w.foldPend(l, &acc.val[l], R)
				}
			}
			for wi := 0; wi < masters>>6; wi++ {
				foldWord(accWords[wi], wi<<6)
			}
			if rem := masters & 63; rem != 0 {
				foldWord(accWords[masters>>6]&(1<<rem-1), masters&^63)
			}
			w.st.RangeMirrors(func(ds int, gid graph.VID) bool {
				if !acc.set.Test(ds) {
					return true
				}
				if sendErr = w.appendKV(e.place.Owner(gid), gid, &acc.val[ds]); sendErr != nil {
					return false
				}
				msgs++
				return true
			})
			w.met.Add(metrics.Serialization, time.Since(sstart))
			w.met.AddTraffic(uint64(msgs), 0)
			if sendErr != nil {
				return sendErr
			}
			if err := w.flushAll(); err != nil {
				return err
			}
			if err := e.tr.EndRound(w.id); err != nil {
				return err
			}
			if err := w.drainKV(func(gid graph.VID, val *V) {
				w.foldPend(e.place.LocalIndex(gid), val, R)
			}); err != nil {
				return err
			}

			// Phase 3: masters apply the reduction against current values,
			// in parallel over 64-aligned chunks (distinct local indices map
			// to distinct masters, so cur writes never collide).
			outBits := out.local[w.id]
			w.timeBlock(metrics.Compute, func() {
				pendWords := w.pendSet.Words()
				w.parfor(w.pendSet.Cap(), func(lo, hi int) {
					for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
						word := pendWords[wi]
						base := wi << 6
						for word != 0 {
							l := base + bits.TrailingZeros64(word)
							word &= word - 1
							w.cur[l] = R(w.pendVal[l], w.cur[l])
							outBits.Set(l)
						}
					}
				})
			})

			// Exchange round 2: broadcast finals to mirrors.
			if scope != scopeNone {
				return w.syncMasters(w.pendSet, scope)
			}
			return nil
		})
	})
}

// mergeAcc folds the phase-1 shards of threads 1.. into shard 0, parallel
// over 64-aligned chunks of the slot space (concurrent bitset writes stay
// word-disjoint). Shard words are consumed (zeroed) as they merge, so only
// shard 0 needs resetting next superstep. The fold visits threads in
// ascending order, keeping the reduction order deterministic for a fixed
// Threads setting.
//
//flash:hotpath
//flash:phase(compute)
func (w *worker[V]) mergeAcc(R EdgeR[V]) {
	a0 := &w.acc[0]
	w.parfor(a0.set.Cap(), func(lo, hi int) {
		for t := 1; t < len(w.acc); t++ {
			a := &w.acc[t]
			if a.val == nil {
				continue
			}
			words := a.set.Words()
			for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
				word := words[wi]
				if word == 0 {
					continue
				}
				words[wi] = 0
				base := wi << 6
				for word != 0 {
					d := base + bits.TrailingZeros64(word)
					word &= word - 1
					if a0.set.TestAndSet(d) {
						a0.val[d] = R(a.val[d], a0.val[d])
					} else {
						a0.val[d] = a.val[d]
					}
				}
			}
		}
	})
}

// foldPend merges an incoming partial for local master l. It copies the
// value, so callers may pass pointers into decode scratch or accumulators.
//
//flash:hotpath
//flash:phase(compute)
func (w *worker[V]) foldPend(l int, val *V, R EdgeR[V]) {
	if w.pendSet.TestAndSet(l) {
		w.pendVal[l] = R(*val, w.pendVal[l])
	} else {
		w.pendVal[l] = *val
	}
}

// EdgeMapDense is the pull kernel (paper Algorithm 5): after broadcasting
// the frontier bitmap, every worker scans its own masters' H-in-edges,
// sequentially applying M for in-neighbors in U until C fails, then
// synchronizes updated masters. One value-exchange round plus the frontier
// round.
//
//flash:hotpath
func (e *Engine[V]) EdgeMapDense(U *Subset, H EdgeSet[V], F EdgeF[V], M EdgeM[V], C EdgeC[V], opts StepOpts) *Subset {
	e.checkSubset(U)
	if !H.SupportsIn() {
		panic("core: edge set does not support pull mode")
	}
	if !H.Physical() && !e.cfg.FullMirrors {
		panic("core: virtual edge sets require Config.FullMirrors (communication beyond neighborhood)")
	}
	if e.bg != nil {
		e.met.AddBlockSteps(1, 0)
	}
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(H.Physical(), opts.NoSync)
		return e.parallelWorkers(func(w *worker[V]) error {
			// Out-of-core: the pull phase streams every block the worker's
			// masters touch; switch the cache to dense (sequential) accounting.
			w.beginDenseBlocks()
			defer w.flushBlockStats()
			if err := w.broadcastFrontier(U); err != nil {
				return err
			}

			outBits := out.local[w.id]
			updated := w.nextSet
			updated.Reset()
			w.timeBlock(metrics.Compute, func() {
				w.parforT(e.place.LocalCount(w.id), func(t, lo, hi int) {
					c := &w.ctxs[t]
					// The pull closure is hoisted out of the target loop and
					// mutates chunk-local state: one allocation per chunk
					// instead of one per local master.
					var work V
					var dv Vtx[V]
					applied := false
					pull := func(s graph.VID, wt float32) bool {
						if C != nil && !C(dv) {
							return false
						}
						if !w.frontier.Test(int(s)) {
							return true
						}
						sv := w.vtx(s)
						if F != nil && !F(sv, dv, wt) {
							return true
						}
						work = M(sv, dv, wt)
						applied = true
						return true
					}
					for l := lo; l < hi; l++ {
						gid := e.place.GlobalID(w.id, l)
						work = w.cur[l]
						dv = w.vtxAt(gid, &work)
						applied = false
						H.In(c, gid, pull)
						if applied {
							w.next[l] = work
							updated.Set(l)
							outBits.Set(l)
						}
					}
				})
				w.publishNext(updated)
			})
			if scope != scopeNone {
				return w.syncMasters(updated, scope)
			}
			return nil
		})
	})
}

// Frontier frame tags: the first payload byte selects the encoding.
const (
	frontierDense  = 0x00 // u32 word offset + raw 64-bit words
	frontierSparse = 0x01 // uvarint count + uvarint first vid + uvarint gaps
)

// encodeFrontier serializes the non-zero word span [lo, hi) of a frontier
// bitmap into scratch, choosing between the dense word-span layout and a
// sparse ascending vid list — whichever frame is smaller. A pull step forced
// over a tiny frontier (R == nil) used to ship the full word span; the sparse
// layout makes that broadcast O(|U|) bytes instead. The sparse attempt aborts
// as soon as it reaches the dense size, so encoding never costs more than
// O(min(|U|, span)) work.
//
//flash:hotpath
//flash:deterministic
func encodeFrontier(scratch []byte, words []uint64, lo, hi int) []byte {
	denseSize := 5 + 8*(hi-lo)
	cnt := 0
	for _, wd := range words[lo:hi] {
		cnt += bits.OnesCount64(wd)
	}
	scratch = append(scratch[:0], frontierSparse)
	scratch = binary.AppendUvarint(scratch, uint64(cnt))
	prev := -1
	left := cnt
	for wi := lo; wi < hi && len(scratch) < denseSize; wi++ {
		word := words[wi]
		base := wi << 6
		for word != 0 && len(scratch) < denseSize {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			if prev < 0 {
				scratch = binary.AppendUvarint(scratch, uint64(v))
			} else {
				scratch = binary.AppendUvarint(scratch, uint64(v-prev))
			}
			prev = v
			left--
		}
	}
	if left == 0 && len(scratch) < denseSize {
		return scratch
	}
	scratch = append(scratch[:0], frontierDense, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(scratch[1:], uint32(lo))
	for _, wd := range words[lo:hi] {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], wd)
		scratch = append(scratch, b[:]...)
	}
	return scratch
}

// decodeFrontier ORs one frontier frame into the global bitmap words. It
// validates bounds and varint framing so a corrupt frame fails the superstep
// instead of corrupting memory.
//
//flash:hotpath
func decodeFrontier(data []byte, words []uint64) error {
	if len(data) == 0 {
		return fmt.Errorf("core: empty frontier frame")
	}
	body := data[1:]
	switch data[0] {
	case frontierDense:
		if len(body) < 4 || (len(body)-4)%8 != 0 {
			return fmt.Errorf("core: bad dense frontier frame of %d bytes", len(data))
		}
		off := int(binary.LittleEndian.Uint32(body))
		nw := (len(body) - 4) / 8
		if off < 0 || off+nw > len(words) {
			return fmt.Errorf("core: dense frontier frame out of range (off=%d words=%d)", off, nw)
		}
		for i := 0; i < nw; i++ {
			words[off+i] |= binary.LittleEndian.Uint64(body[4+8*i:])
		}
		return nil
	case frontierSparse:
		cnt, k := binary.Uvarint(body)
		if k <= 0 || cnt > uint64(len(words))*64 {
			return fmt.Errorf("core: bad sparse frontier count")
		}
		body = body[k:]
		v := uint64(0)
		for i := uint64(0); i < cnt; i++ {
			d, k := binary.Uvarint(body)
			if k <= 0 {
				return fmt.Errorf("core: truncated sparse frontier frame")
			}
			body = body[k:]
			if i == 0 {
				v = d
			} else {
				v += d
			}
			if v >= uint64(len(words))*64 {
				return fmt.Errorf("core: sparse frontier vid %d out of range", v)
			}
			words[v>>6] |= 1 << (v & 63)
		}
		if len(body) != 0 {
			return fmt.Errorf("core: %d trailing bytes in sparse frontier frame", len(body))
		}
		return nil
	default:
		return fmt.Errorf("core: unknown frontier frame tag 0x%02x", data[0])
	}
}

// broadcastFrontier shares the members of U with every worker (one exchange
// round) and materializes them in w.frontier as a global bitmap. Frames carry
// either the word span of the bitmap or a sparse vid list, whichever is
// smaller for this worker's members.
//
//flash:hotpath
//flash:deterministic
//flash:phase(ship)
func (w *worker[V]) broadcastFrontier(U *Subset) error {
	e := w.eng
	sstart := time.Now()
	w.frontier.Reset()
	U.local[w.id].Range(func(l int) bool {
		w.frontier.Set(int(e.place.GlobalID(w.id, l)))
		return true
	})
	words := w.frontier.Words()
	lo, hi := 0, len(words)
	for lo < hi && words[lo] == 0 {
		lo++
	}
	for hi > lo && words[hi-1] == 0 {
		hi--
	}
	if hi > lo && e.cfg.Workers > 1 {
		w.fenc = encodeFrontier(w.fenc, words, lo, hi)
		// One pooled payload per destination: delivered frames are recycled
		// by the receiver's drain, so destinations must not share a buffer.
		for to := 0; to < e.cfg.Workers; to++ {
			if to == w.id {
				continue
			}
			payload := comm.GetBufN(len(w.fenc))
			copy(payload, w.fenc)
			if err := w.send(to, payload); err != nil {
				w.met.Add(metrics.Serialization, time.Since(sstart))
				return err
			}
		}
		w.met.AddTraffic(uint64(e.cfg.Workers-1), 0)
	}
	w.met.Add(metrics.Serialization, time.Since(sstart))
	if err := e.tr.EndRound(w.id); err != nil {
		return err
	}
	cstart := time.Now()
	var frameErr error
	drainErr := e.tr.Drain(w.id, func(_ int, data []byte) {
		if err := decodeFrontier(data, words); err != nil && frameErr == nil {
			frameErr = err
		}
	})
	w.met.Add(metrics.Communication, time.Since(cstart))
	if drainErr != nil {
		return drainErr
	}
	return frameErr
}
