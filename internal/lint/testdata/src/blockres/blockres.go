// Fixture for the blockres analyzer: decoded block adjacency lives in an
// arena that eviction recycles, so no alias of it may outlive the superstep
// scope that fetched the block. Matched by type name (DecodedBlock), like
// the real graph.BlockGraph.ReadBlock result.
package blockres

type VID uint32

// DecodedBlock mirrors graph.DecodedBlock: a resident decoded block whose
// adjacency slices alias the decode arena.
type DecodedBlock struct {
	first VID
	adj   [][]VID
}

// Adj returns the adjacency of v — an alias into the arena.
func (b *DecodedBlock) Adj(v VID) []VID { return b.adj[int(v-b.first)] }

type source struct{ blocks []*DecodedBlock }

func (s *source) ReadBlock(idx int) (*DecodedBlock, error) { return s.blocks[idx], nil }

// adjOf flows its block argument's memory to its return value; callers see
// that through the dataflow summary, not the type.
func adjOf(dec *DecodedBlock, v VID) []VID {
	return dec.adj[int(v-dec.first)]
}

// stashAdj retains its argument in package state.
func stashAdj(a []VID) { lastAdj = a }

// checksum only reads its argument; passing tainted memory is fine.
func checksum(a []VID) int { return len(a) }

var lastAdj []VID

var shipCh = make(chan []VID, 1)

type scan struct{ keep []VID }

func leaks(s *source, h *scan, v VID) {
	dec, _ := s.ReadBlock(0)
	lastAdj = dec.Adj(v)     // want `decoded block memory stored in package state`
	h.keep = dec.Adj(v)      // want `decoded block memory stored through h\.keep`
	shipCh <- dec.Adj(v)     // want `decoded block memory sent on a channel`
	stashAdj(dec.Adj(v))     // want `decoded block memory passed to stashAdj, which retains its argument`
	_ = checksum(dec.Adj(v)) // no diagnostic: the callee does not retain
}

// The interprocedural case: the alias crosses a call boundary before
// leaking, so only the summary (FlowsToRet) connects the block to the sink.
func leaksViaCallee(s *source, v VID) {
	dec, _ := s.ReadBlock(0)
	a := adjOf(dec, v)
	lastAdj = a // want `decoded block memory stored in package state`
}

func leaksCapture(s *source, v VID) {
	dec, _ := s.ReadBlock(0)
	a := dec.Adj(v)
	go func() { // want `decoded block memory captured by go`
		_ = a[0]
	}()
	defer func() { // want `decoded block memory captured by defer`
		_ = len(a)
	}()
}

func returnsAlias(s *source, v VID) []VID {
	dec, _ := s.ReadBlock(0)
	return dec.Adj(v) // want `returning an alias of decoded block adjacency`
}

// Returning the *DecodedBlock itself is sanctioned: the taint is carried by
// the type and re-attaches at every caller.
func returnsBlock(s *source) *DecodedBlock {
	dec, _ := s.ReadBlock(0)
	return dec
}

// Copying the adjacency out severs the alias.
func copiesOut(s *source, v VID) []VID {
	dec, _ := s.ReadBlock(0)
	out := append([]VID(nil), dec.Adj(v)...)
	return out // no diagnostic: fresh copy, not an arena alias
}

// remember models the cache's own bookkeeping: the sanctioned residency
// owner may store blocks by design.
//
//flash:blockowner the cache is the budget-bounded residency authority
func (s *source) remember(dec *DecodedBlock) {
	s.blocks[0] = dec
}

func insertPath(s *source) {
	dec, _ := s.ReadBlock(1)
	s.remember(dec) // no diagnostic: callee is //flash:blockowner
}

// cursor models the engine's per-thread block cursor: it keeps a pinned block
// across calls, which only a marked owner may do — an unmarked holder would
// read an arena the cache has since recycled.
type cursor struct{ blk *DecodedBlock }

func (c *cursor) moveUnmarked(s *source) {
	dec, _ := s.ReadBlock(0)
	c.blk = dec // want `decoded block memory stored through c\.blk`
}

//flash:blockowner the cursor keeps its block pinned until it moves on or the superstep ends
func (c *cursor) move(s *source) {
	dec, _ := s.ReadBlock(0)
	c.blk = dec // no diagnostic: the marked owner releases what it stores
}
