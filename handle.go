package flash

import (
	"flash/graph"
	"flash/internal/core"
)

// GraphHandle is the shared, immutable half of an engine: a graph plus a
// concurrency-safe cache of read-only partitions. A catalog (see
// internal/serve and cmd/flashd) holds one handle per loaded graph; every
// job's engine constructed with WithGraphHandle borrows the cached partition
// for its (workers, placement) configuration instead of rebuilding it, so N
// concurrent jobs over one graph share a single CSR and partition. All
// per-run mutable state (current/next values, accumulator shards,
// checkpoints) remains private to each engine — jobs cannot observe each
// other.
type GraphHandle struct {
	s *core.SharedGraph
}

// NewGraphHandle wraps g for sharing across concurrent engines. The graph
// must not change afterwards (graph.Graph is immutable by construction).
func NewGraphHandle(g *graph.Graph) *GraphHandle {
	return &GraphHandle{s: core.NewSharedGraph(g)}
}

// NewBlockGraphHandle wraps an out-of-core FLASHBLK block graph — the one way
// to run an engine out-of-core: Graph() returns the in-memory skeleton,
// partitions are discovered by streaming the block file, and every engine
// constructed with WithGraphHandle iterates its base edge set E through
// varint-delta compressed, CRC-checked blocks in a bounded per-worker cache
// instead of CSR rows, so graphs larger than RAM run unchanged. Dense
// supersteps stream a worker's blocks sequentially; sparse supersteps read
// only blocks containing active sources.
func NewBlockGraphHandle(bg *graph.BlockGraph) *GraphHandle {
	return &GraphHandle{s: core.NewSharedBlockGraph(bg)}
}

// Graph returns the shared topology (the skeleton, for a block-backed
// handle).
func (h *GraphHandle) Graph() *graph.Graph { return h.s.Graph() }

// Block returns the out-of-core block graph behind the handle, or nil for an
// in-memory handle.
func (h *GraphHandle) Block() *graph.BlockGraph { return h.s.Block() }

// Prewarm builds and caches the partition for the given worker count and the
// default (range) placement, so the first job at that configuration does not
// pay the partitioning cost. It is safe to call concurrently with jobs.
func (h *GraphHandle) Prewarm(workers int) { h.s.Partition(workers, false) }

// Partitions returns the number of distinct (workers, placement) partitions
// currently cached.
func (h *GraphHandle) Partitions() int { return h.s.Partitions() }

// SharedBytes returns the resident footprint of the cached partitions'
// derived structures (mirror sets, mirror-worker lists, slot-table
// auxiliaries). With GraphBytes this is the memory one catalog graph costs,
// paid once regardless of how many jobs run over it.
func (h *GraphHandle) SharedBytes() uint64 { return h.s.SharedBytes() }

// GraphBytes returns the resident footprint of the shared CSR arrays.
func (h *GraphHandle) GraphBytes() uint64 { return h.s.Graph().MemBytes() }

// WithGraphHandle makes the engine borrow h's graph-derived immutable state
// (partition, slot tables) instead of building its own. The graph passed to
// NewEngine must be h.Graph(). The borrowed partition is read-only to the
// engine: recovery reuses it untouched and a resize builds a private one for
// the new width, so one job never races another.
func WithGraphHandle(h *GraphHandle) Option {
	return func(c *core.Config) { c.Shared = h.s }
}

// RunStats is the final summary delivered by WithRunStats when the engine
// closes: the cumulative run counters, the final worker count, and
// StateBytes — the job-private mutable state, i.e. what a concurrent job
// costs on top of the shared graph and partition.
type RunStats = core.RunStats

// WithRunStats registers f to receive a RunStats summary when the engine
// closes (algorithms in the algo package close their private engine before
// returning, so by the time an algo call returns the summary has been
// delivered). Serving layers use it to account each job's state footprint
// and supersteps without holding the engine open.
func WithRunStats(f func(RunStats)) Option {
	return func(c *core.Config) { c.RunStats = f }
}
