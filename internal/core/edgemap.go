package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// EdgeFuncs holds an EdgeMap's F and M in one of two forms: weighted (F, M)
// or unweighted (UF, UM, which never see the weight). The kernels call
// whichever form is set, so an unweighted callback reaches the per-edge loop
// as it is, with no wrapper closure between. A nil F in both forms is CTRUE.
type EdgeFuncs[V any] struct {
	F  EdgeF[V]
	M  EdgeM[V]
	UF func(s, d Vtx[V]) bool
	UM func(s, d Vtx[V]) V
}

// Weighted returns the weighted form of an EdgeMap's F and M.
func Weighted[V any](F EdgeF[V], M EdgeM[V]) EdgeFuncs[V] {
	return EdgeFuncs[V]{F: F, M: M}
}

// Unweighted returns the unweighted form of an EdgeMap's F and M.
func Unweighted[V any](F func(s, d Vtx[V]) bool, M func(s, d Vtx[V]) V) EdgeFuncs[V] {
	return EdgeFuncs[V]{UF: F, UM: M}
}

// EdgeMap is the paper's EDGEMAP: it applies M over the active edges
// {(s,d) ∈ H | s ∈ U ∧ C(d)} that pass F and returns the subset of updated
// targets. The propagation mode is chosen by the density rule unless forced
// by opts.Mode or the engine configuration; a nil R forces pull mode
// (§III-A).
func (e *Engine[V]) EdgeMap(U *Subset, H EdgeSet[V], fns EdgeFuncs[V], C EdgeC[V], R EdgeR[V], opts StepOpts) *Subset {
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
		return e.EdgeMapDense(U, H, fns, C, opts)
	}
	return e.EdgeMapSparse(U, H, fns, C, R, opts)
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
		U.local[w.id].each(func(l int) bool {
			sum += H.OutDegreeHint(&w.ctxs[0], w.st.GID(l))
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
// A step costs its frontier and its pushed edges: the accumulator and the
// pending set record the slots they gain in accList/pendList, and phases 2
// and 3 walk, apply and clear only those, emitting the output as a list. A
// step that overflows a list (see listMax) scans the bitmap words instead.
//
//flash:hotpath
func (e *Engine[V]) EdgeMapSparse(U *Subset, H EdgeSet[V], fns EdgeFuncs[V], C EdgeC[V], R EdgeR[V], opts StepOpts) *Subset {
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
		e.met.Fold(&metrics.Record{Counters: metrics.Counters{BlockStepsSparse: 1}})
	}
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(H.Physical(), opts.NoSync)
		return e.parallelWorkers(func(w *worker[V]) error {
			membership := &U.local[w.id]
			// Out-of-core: switch the cache to sparse accounting and the
			// cursors to row reads before any edge is touched, and flush the
			// cache counters into the metric shard however the step ends.
			w.beginBlocks(true, true)
			defer w.flushBlockStats()

			// Phase 1: push along out-edges, accumulating per-target partials
			// into per-thread shards indexed by slot (every push target of a
			// physical set is a local master or mirror; virtual sets run
			// under FullMirrors where every vertex is resident) — no locks on
			// the per-edge path. Each thread pushes through its pusher, which
			// walks each source's out-row as a slice; shard 0 records each
			// slot it gains in accList.
			cstart := time.Now()
			w.bindPushers(H, fns, C, R)
			// Density rule as in forEachMember, plus an edge-work floor: the
			// parallel path materializes Threads-1 slot-sized shards and pays
			// an O(SlotCount) merge scan per shard, so it only engages when
			// this worker's pushed-edge work amortizes that cost. Auto-mode
			// sparse frontiers carry at most |E|/denseThreshold edges (bigger
			// ones go dense), so on most graphs only forced-push workloads
			// ever materialize the extra shards.
			parallel := false
			if e.cfg.Threads > 1 && U.Size()*16 >= membership.n {
				floor := w.st.SlotCount()
				work := 0
				membership.each(func(l int) bool {
					work += H.OutDegreeHint(&w.ctxs[0], w.st.GID(l))
					return work < floor
				})
				parallel = work >= floor
			}
			if !parallel {
				p := &w.pushers[0]
				membership.each(func(l int) bool {
					p.visit(l)
					return true
				})
			} else {
				// Shards 1.. record nothing, so phase 2 scans the words.
				w.accOver = true
				w.ensureAccShards()
				if bits := membership.bits; bits != nil {
					w.parforT(bits.Cap(), func(t, lo, hi int) {
						p := &w.pushers[t]
						for l := lo; l < hi; l++ {
							if bits.Test(l) {
								p.visit(l)
							}
						}
					})
				} else {
					list := membership.list
					w.parforT(len(list), func(t, lo, hi int) {
						p := &w.pushers[t]
						for _, l := range list[lo:hi] {
							p.visit(int(l))
						}
					})
				}
				w.mergeAcc(R)
			}
			w.bindPushers(nil, EdgeFuncs[V]{}, nil, nil)
			w.rec.Durations[metrics.Compute] += time.Since(cstart)

			// Phase 2: route partials to target masters (exchange round 1).
			// The master region of the slot space folds locally (slot ==
			// local index); mirrors ship in ascending slot — hence gid —
			// order, so every destination's frame carries sorted vids:
			// message bytes are deterministic and the delta encoding stays
			// tight. Both walks leave the accumulator empty.
			sstart := time.Now()
			msgs, sendErr := w.routeAcc(R)
			w.rec.Durations[metrics.Serialization] += time.Since(sstart)
			w.rec.Messages += uint64(msgs)
			if sendErr != nil {
				return sendErr
			}
			if err := w.flushAll(); err != nil {
				return err
			}
			if err := e.tr.EndRound(w.id); err != nil {
				return err
			}
			w.kv.foldR = R
			err := w.drainKV(w.kv.gidFrame, w.kv.foldSink)
			w.kv.foldR = nil
			if err != nil {
				return err
			}

			// Phase 3: masters apply the reduction against current values and
			// leave the pending set empty: the touched masters in ascending
			// order into a list output, or, past the crossover, in parallel
			// over 64-aligned chunks of the pending words into a bitmap
			// (distinct local indices map to distinct masters, so cur writes
			// never collide).
			o := &out.local[w.id]
			cstart = time.Now()
			if !w.pendOver {
				slices.Sort(w.pendList)
				for _, l := range w.pendList {
					w.pendSet.Clear(int(l))
					w.cur[l] = R(w.pendVal[l], w.cur[l])
				}
				o.list = append(newList(len(w.pendList)), w.pendList...)
				w.pendList = w.pendList[:0]
			} else {
				outBits := o.bitmap()
				pendWords := w.pendSet.Words()
				w.parfor(w.pendSet.Cap(), func(lo, hi int) {
					for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
						word := pendWords[wi]
						pendWords[wi] = 0
						base := wi << 6
						for word != 0 {
							l := base + bits.TrailingZeros64(word)
							word &= word - 1
							w.cur[l] = R(w.pendVal[l], w.cur[l])
							outBits.Set(l)
						}
					}
				})
				w.pendList, w.pendOver = w.pendList[:0], false
			}
			w.rec.Durations[metrics.Compute] += time.Since(cstart)

			// Exchange round 2: broadcast finals to mirrors.
			if scope != scopeNone {
				return w.syncMasters(o, scope)
			}
			return nil
		})
	})
}

// pusher is one parfor thread's phase-1 state in the push kernel: the
// step's edge set, where its rows come from and its callbacks, set by
// bindPushers for the step.
type pusher[V any] struct {
	w     *worker[V]
	a     *accShard[V]
	c     *Ctx[V]
	track bool // thread 0 records the slots it gains in accList

	H   EdgeSet[V]
	src rowSrc
	dir int
	cb  EdgeFuncs[V]
	C   EdgeC[V]
	R   EdgeR[V]
}

// initPushers binds the worker's per-thread pushers to their shard and Ctx.
func (w *worker[V]) initPushers() {
	w.pushers = make([]pusher[V], w.eng.cfg.Threads)
	for t := range w.pushers {
		p := &w.pushers[t]
		p.w, p.a, p.c, p.track = w, &w.acc[t], &w.ctxs[t], t == 0
	}
}

// bindPushers hands a step's edge set, its row source and its callbacks to
// every pusher; the step rebinds nil when phase 1 ends, so no pusher keeps
// them alive.
func (w *worker[V]) bindPushers(H EdgeSet[V], fns EdgeFuncs[V], C EdgeC[V], R EdgeR[V]) {
	src, dir := rowSource(H, graph.BlockOut)
	for t := range w.pushers {
		p := &w.pushers[t]
		p.H, p.src, p.dir, p.cb, p.C, p.R = H, src, dir, fns, C, R
	}
}

// visit pushes local master l along its out-row (paper Algorithm 6): per
// edge it skips a target failing C, then one failing F, and accumulates M's
// tentative value into the thread's shard.
//
//flash:hotpath
func (p *pusher[V]) visit(l int) {
	w, a := p.w, p.a
	u := w.st.GID(l)
	uv := w.vtxAt(u, &w.cur[l])
	adj, ws := p.c.rowOf(p.H, p.src, p.dir, u)
	C, R := p.C, p.R
	uf, f, um, m := p.cb.UF, p.cb.F, p.cb.UM, p.cb.M
	for i, d := range adj {
		ds := w.st.Slot(d)
		dv := w.vtxAt(d, &w.cur[ds])
		if C != nil && !C(dv) {
			continue
		}
		var wt float32
		if ws != nil {
			wt = ws[i]
		}
		if uf != nil {
			if !uf(uv, dv) {
				continue
			}
		} else if f != nil && !f(uv, dv, wt) {
			continue
		}
		var t V
		if um != nil {
			t = um(uv, dv)
		} else {
			t = m(uv, dv, wt)
		}
		if a.set.TestAndSet(ds) {
			a.val[ds] = R(t, a.val[ds])
		} else {
			a.val[ds] = t
			if p.track {
				w.touchAcc(ds, d)
			}
		}
	}
}

// touchAcc records a slot newly set in shard 0 while accList has room; past
// it the step falls back to scanning the words.
//
//flash:hotpath
func (w *worker[V]) touchAcc(slot int, gid graph.VID) {
	n := len(w.accList)
	if n == cap(w.accList) {
		w.accOver = true
		return
	}
	w.accList = w.accList[:n+1]
	w.accList[n] = uint64(slot)<<32 | uint64(gid)
}

// routeAcc is phase 2's local half: it folds every accumulated master
// partial into the pending set and appends every mirror partial to its
// owner's frame, in ascending slot order, clearing the accumulator as it
// goes. It walks accList sorted, or past the crossover the master words and
// the mirror table, and returns the number of partials shipped.
//
//flash:hotpath
func (w *worker[V]) routeAcc(R EdgeR[V]) (int, error) {
	e := w.eng
	acc := &w.acc[0]
	masters := w.st.MasterCount()
	msgs := 0
	var sendErr error
	if !w.accOver {
		slices.Sort(w.accList)
		for _, t := range w.accList {
			ds, gid := int(t>>32), graph.VID(uint32(t))
			acc.set.Clear(ds)
			if ds < masters {
				w.foldPend(ds, &acc.val[ds], R)
				continue
			}
			if sendErr = w.appendKV(e.place.Owner(gid), uint32(gid), &acc.val[ds]); sendErr != nil {
				break
			}
			msgs++
		}
		w.accList = w.accList[:0]
		return msgs, sendErr
	}
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
		if sendErr = w.appendKV(e.place.Owner(gid), uint32(gid), &acc.val[ds]); sendErr != nil {
			return false
		}
		msgs++
		return true
	})
	acc.set.Reset()
	w.accList, w.accOver = w.accList[:0], false
	return msgs, sendErr
}

// mergeAcc folds the phase-1 shards of threads 1.. into shard 0, parallel
// over 64-aligned chunks of the slot space (concurrent bitset writes stay
// word-disjoint). Shard words are consumed (zeroed) as they merge, so only
// shard 0 needs resetting next superstep. The fold visits threads in
// ascending order, keeping the reduction order deterministic for a fixed
// Threads setting.
//
//flash:hotpath
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

// foldPend merges an incoming partial for local master l, recording a newly
// pending master in pendList while it has room. It copies the value, so
// callers may pass pointers into decode scratch or accumulators.
//
//flash:hotpath
func (w *worker[V]) foldPend(l int, val *V, R EdgeR[V]) {
	if w.pendSet.TestAndSet(l) {
		w.pendVal[l] = R(*val, w.pendVal[l])
		return
	}
	w.pendVal[l] = *val
	n := len(w.pendList)
	if n == cap(w.pendList) {
		w.pendOver = true
		return
	}
	w.pendList = w.pendList[:n+1]
	w.pendList[n] = int32(l)
}

// EdgeMapDense is the pull kernel (paper Algorithm 5): after broadcasting
// the frontier bitmap, every worker scans its own masters' H-in-edges,
// sequentially applying M for in-neighbors in U until C fails, then
// synchronizes updated masters. One value-exchange round plus the frontier
// round.
//
// C is first checked here, on each target before its row is read: a target
// that fails it is skipped with no row read and no pull. Out-of-core, a pull
// with C therefore reads only the rows of the targets that pass, by rows; a
// pull without C needs every row and streams whole blocks.
//
//flash:hotpath
func (e *Engine[V]) EdgeMapDense(U *Subset, H EdgeSet[V], fns EdgeFuncs[V], C EdgeC[V], opts StepOpts) *Subset {
	e.checkSubset(U)
	if !H.SupportsIn() {
		panic("core: edge set does not support pull mode")
	}
	if !H.Physical() && !e.cfg.FullMirrors {
		panic("core: virtual edge sets require Config.FullMirrors (communication beyond neighborhood)")
	}
	if e.bg != nil {
		e.met.Fold(&metrics.Record{Counters: metrics.Counters{BlockStepsDense: 1}})
	}
	src, dir := rowSource(H, graph.BlockIn)
	all := U.Size() == e.g.NumVertices()
	return e.execStep(U.Size(), func(out *Subset) error {
		scope := e.scopeFor(H.Physical(), opts.NoSync)
		return e.parallelWorkers(func(w *worker[V]) error {
			// Out-of-core: the pull phase visits every block the worker's
			// masters touch, so the cache takes dense accounting; the cursors
			// read rows when C can skip targets, whole blocks otherwise.
			w.beginBlocks(false, C != nil)
			defer w.flushBlockStats()
			if err := w.broadcastFrontier(U); err != nil {
				return err
			}

			o := &out.local[w.id]
			outBits := o.bitmap()
			cstart := time.Now()
			w.loadView()
			// E's in-rows come from the view, as slots, where it has rows;
			// every other row is read as gids.
			view := w.view
			slots := src == rowsCSR && dir == graph.BlockIn && view.Off != nil
			w.parforT(w.st.MasterCount(), func(t, lo, hi int) {
				c := &w.ctxs[t]
				for l := lo; l < hi; l++ {
					gid := w.st.GID(l)
					c.work = w.cur[l]
					dv := w.vtxAt(gid, &c.work)
					if C != nil && !C(dv) {
						continue
					}
					var adj []graph.VID
					var ws []float32
					if slots {
						adj, ws = view.Src[view.Off[l]:view.Off[l+1]], c.G.InWeights(gid)
					} else {
						adj, ws = c.rowOf(H, src, dir, gid)
					}
					if w.pull(adj, ws, slots, dv, &fns, C, all) {
						w.next[l] = c.work
						outBits.Set(l)
					}
				}
			})
			w.publishNext(o)
			w.rec.Durations[metrics.Compute] += time.Since(cstart)
			if scope != scopeNone {
				return w.syncMasters(o, scope)
			}
			return nil
		})
	})
}

// pull runs the pull kernel over one target's in-row, whose entries are the
// sources' slots (slots, a pull-view row) or their gids; either way the
// frontier test and the source's Vtx.ID read the gid, and its state and
// degrees are read at its slot. The target passed C before its row was read
// (EdgeMapDense); per edge pull skips a source outside the frontier (no test
// when U is all of V), then one failing F, and applies M to the target's
// working value, whose Val M's results overwrite. Only M changes that value,
// so C is checked again after each M, and the row stops at the first
// failure. It reports whether M ran.
//
//flash:hotpath
func (w *worker[V]) pull(adj []graph.VID, ws []float32, slots bool, dv Vtx[V], fns *EdgeFuncs[V], C EdgeC[V], all bool) bool {
	uf, f, um, m := fns.UF, fns.F, fns.UM, fns.M
	// Locals: a store through dv.Val could alias w's fields, so reading them
	// per edge would reload them after every M.
	st, deg, gids, cur, front := w.st, w.view.Deg, w.view.GIDs, w.cur, w.frontier.Words()
	applied := false
	for i, x := range adj {
		s, slot := x, int(x)
		if slots {
			s = gids[slot]
		}
		if !all && front[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		if !slots {
			slot = st.Slot(s)
		}
		d := deg[slot]
		sv := Vtx[V]{ID: s, Deg: uint32(d >> 32), InDeg: uint32(d), Val: &cur[slot]}
		var wt float32
		if ws != nil {
			wt = ws[i]
		}
		if uf != nil {
			if !uf(sv, dv) {
				continue
			}
		} else if f != nil && !f(sv, dv, wt) {
			continue
		}
		if um != nil {
			*dv.Val = um(sv, dv)
		} else {
			*dv.Val = m(sv, dv, wt)
		}
		applied = true
		if C != nil && !C(dv) {
			break
		}
	}
	return applied
}

// Frontier frame tags: the first payload byte selects the encoding.
const (
	frontierDense  = 0x00 // u32 word offset + raw 64-bit words
	frontierSparse = 0x01 // uvarint count + uvarint first vid + uvarint gaps
)

// encodeFrame encodes the span of words holding set bits as one frontier
// frame into the worker's fenc scratch, left empty when no bit is set, and
// returns it.
//
//flash:hotpath
func (w *worker[V]) encodeFrame(words []uint64) []byte {
	lo, hi := 0, len(words)
	for lo < hi && words[lo] == 0 {
		lo++
	}
	for hi > lo && words[hi-1] == 0 {
		hi--
	}
	w.fenc = w.fenc[:0]
	if hi > lo {
		w.fenc = encodeFrontier(w.fenc, words, lo, hi)
	}
	return w.fenc
}

// encodeMembers encodes one worker's members as a frontier frame of local
// indices into the worker's fenc scratch, left empty for an empty set, and
// returns it. A list encodes straight into the frame encodeFrame would pick
// for the same members as a bitmap, byte for byte.
//
//flash:hotpath
func (w *worker[V]) encodeMembers(m *members) []byte {
	if m.bits != nil {
		return w.encodeFrame(m.bits.Words())
	}
	w.fenc = w.fenc[:0]
	if len(m.list) > 0 {
		w.fenc = encodeFrontierList(w.fenc, m.list)
	}
	return w.fenc
}

// encodeFrontier serializes the non-zero word span [lo, hi) of a frontier
// bitmap into scratch, choosing between the dense word-span layout and a
// sparse ascending vid list — whichever frame is smaller. A pull step forced
// over a tiny frontier (R == nil) used to ship the full word span; the sparse
// layout makes that broadcast O(|U|) bytes instead. The sparse attempt aborts
// as soon as it reaches the dense size, so encoding never costs more than
// O(min(|U|, span)) work.
//
//flash:hotpath
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

// encodeFrontierList is encodeFrontier for a non-empty strictly ascending
// list: the word span runs from the first member's word to the last one's,
// and the frame is the smaller of the same two layouts, so the bytes equal
// those of the list's bitmap.
//
//flash:hotpath
func encodeFrontierList(scratch []byte, list []int32) []byte {
	lo, hi := int(list[0])>>6, int(list[len(list)-1])>>6+1
	denseSize := 5 + 8*(hi-lo)
	scratch = append(scratch[:0], frontierSparse)
	scratch = binary.AppendUvarint(scratch, uint64(len(list)))
	prev := -1
	for _, v := range list {
		if len(scratch) >= denseSize {
			break
		}
		if prev < 0 {
			scratch = binary.AppendUvarint(scratch, uint64(v))
		} else {
			scratch = binary.AppendUvarint(scratch, uint64(int(v)-prev))
		}
		prev = int(v)
	}
	if int(list[len(list)-1]) == prev && len(scratch) < denseSize {
		return scratch
	}
	scratch = append(scratch[:0], frontierDense, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(scratch[1:], uint32(lo))
	scratch = append(scratch, make([]byte, 8*(hi-lo))...)
	span := scratch[5:]
	for _, v := range list {
		off := int(v) - lo<<6
		span[off>>3] |= 1 << (off & 7)
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
func (w *worker[V]) broadcastFrontier(U *Subset) error {
	e := w.eng
	sstart := time.Now()
	w.frontier.Reset()
	U.local[w.id].each(func(l int) bool {
		w.frontier.Set(int(w.st.GID(l)))
		return true
	})
	words := w.frontier.Words()
	if e.cfg.Workers > 1 && len(w.encodeFrame(words)) > 0 {
		// One pooled payload per destination: delivered frames are recycled
		// by the receiver's drain, so destinations must not share a buffer.
		for to := 0; to < e.cfg.Workers; to++ {
			if to == w.id {
				continue
			}
			payload := comm.GetBufN(len(w.fenc))
			copy(payload, w.fenc)
			if err := w.send(to, payload); err != nil {
				w.rec.Durations[metrics.Serialization] += time.Since(sstart)
				return err
			}
		}
		w.rec.Messages += uint64(e.cfg.Workers - 1)
	}
	w.rec.Durations[metrics.Serialization] += time.Since(sstart)
	if err := e.tr.EndRound(w.id); err != nil {
		return err
	}
	cstart := time.Now()
	w.frontierErr = nil
	drainErr := e.tr.Drain(w.id, w.onFrontier)
	frameErr := w.frontierErr
	w.frontierErr = nil
	w.rec.Durations[metrics.Communication] += time.Since(cstart)
	if drainErr != nil {
		return drainErr
	}
	return frameErr
}

// decodeFrontierFrame is broadcastFrontier's Drain handler: it ORs one peer's
// frame into the frontier bitmap, keeping the first decode error.
//
//flash:hotpath
func (w *worker[V]) decodeFrontierFrame(_ int, data []byte) {
	if err := decodeFrontier(data, w.frontier.Words()); err != nil && w.frontierErr == nil {
		w.frontierErr = err
	}
}
