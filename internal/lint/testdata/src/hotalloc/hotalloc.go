// Fixture for the hotalloc analyzer: seeded allocating constructs inside
// //flash:hotpath functions plus negative cases that must stay silent.
package hotalloc

import (
	"fmt"

	"hotalloc/hotdep"
)

type VID uint32

func sink(v any)        {}
func use(b []byte)      {}
func grab() []byte      { return nil }
func consume(f func())  {}
func add(dst []int) int { return len(dst) }

//flash:hotpath
func hotBad(vids []VID, out []int) {
	s := fmt.Sprintf("step %d", len(vids)) // want `call into package fmt`
	_ = s
	m := make(map[VID]int) // want `unsized make`
	_ = m
	buf := make([]byte, 0) // want `unsized make`
	_ = buf
	var acc []int
	for i, v := range vids {
		acc = append(acc, int(v))    // want `append to possibly-unsized acc`
		f := func() int { return i } // want `variable-capturing closure inside a loop`
		out[f()%len(out)] = 0
	}
	sink(len(acc)) // want `implicit interface boxing of int`
}

type slots struct{ idx []int }

func (s *slots) Slot(v VID) int { return s.idx[v] }

// visitBad is hotalloc's recorded true positive (DESIGN.md §6): a slot lookup
// wrapped in a capturing closure inside the push kernel's edge loop. No test
// or allocation guard fails on it, because the compiler keeps a closure that
// is called at once on the stack; the analyzer reports the construct.
//
//flash:hotpath
func visitBad(adj []VID, st *slots, cur []int) {
	for _, d := range adj {
		slotOf := func() int { return st.Slot(d) } // want `variable-capturing closure inside a loop`
		cur[slotOf()]++
	}
}

//flash:hotpath
func hotGood(dst []byte, vids []VID) []byte {
	buf := make([]int, 0, len(vids)) // sized: explicit capacity
	for _, v := range vids {
		buf = append(buf, int(v))  // no diagnostic: destination is capacity-carrying
		dst = append(dst, byte(v)) // no diagnostic: parameter, caller owns capacity
	}
	scratch := grab()
	scratch = append(scratch[:0], dst...) // no diagnostic: [:0] reuse idiom
	use(scratch)
	_ = add(buf)
	return dst
}

//flash:hotpath
func hotDecode(src []byte) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("short frame: %d bytes", len(src)) // no diagnostic: cold error return
	}
	return int(src[0]), nil
}

type badInput struct{ n int }

//flash:hotpath
func hotPanic(n int) {
	if n < 0 {
		panic(badInput{n}) // no diagnostic: panic arguments are cold
	}
}

//flash:hotpath
func hotHoisted(vids []VID, out []int) {
	bump := func(i int) { out[i%len(out)]++ } // no diagnostic: hoisted above the loop
	for _, v := range vids {
		bump(int(v))
	}
}

//flash:hotpath
func hotCaptureFree(vids []VID) int {
	t := 0
	for range vids {
		double := func(x int) int { return x * 2 } // no diagnostic: captures nothing
		t = double(t)
	}
	return t
}

//flash:hotpath
func hotAllowed() {
	idx := make(map[VID]int) //flash:allow hotalloc built once at engine init, not per superstep
	_ = idx
}

// coldPath has no marker: the same constructs are fine here.
func coldPath(vids []VID) string {
	m := make(map[VID]int)
	for i, v := range vids {
		m[v] = i
	}
	return fmt.Sprint(len(m))
}

// Block-path pattern, modeled on the FLASHBLK block cache's Get/decode path:
// the per-read buffer must be sized from the block-table entry, and the
// decoded adjacency must grow into a capacity-carrying destination — an
// unsized scratch grown per edge re-allocates on the per-block hot path.
type blockMeta struct{ encLen uint32 }

//flash:hotpath
func hotBlockDecodeBad(metas []blockMeta, idx int, edges []VID) []VID {
	var adj []VID
	for _, v := range edges {
		adj = append(adj, v) // want `append to possibly-unsized adj`
	}
	return adj
}

//flash:hotpath
func hotBlockDecodeGood(metas []blockMeta, idx int, edges []VID) []VID {
	buf := make([]byte, metas[idx].encLen) // sized by the block-table entry
	use(buf)
	adj := make([]VID, 0, len(edges)) // sized by the block's edge count
	for _, v := range edges {
		adj = append(adj, v) // no diagnostic: destination carries capacity
	}
	return adj
}

// Cross-package allocation: the allocations live in hotalloc/hotdep, behind
// calls v1 treated as opaque. The summaries carry them to the hot call site.
//
//flash:hotpath
func hotCrossPackage(n int, dst []int) []int {
	buckets := hotdep.FillBuckets(n) // want `call to FillBuckets allocates in a loop`
	_ = buckets
	for i := 0; i < n; i++ {
		s := hotdep.Scratch(n) // want `call to allocating Scratch inside a hot loop`
		_ = s
		dst = hotdep.Reuse(dst, i) // no diagnostic: callee allocates nothing, pinned
		t := hotdep.Table(n)       // no diagnostic: //flash:amortized callee
		_ = t
	}
	return dst
}
