// The immutable half of the engine split.
//
// An Engine used to own everything it touched: topology, partition, slot
// tables, and the per-run property state. That model is fine for "load one
// graph, run one algorithm, exit", but a long-lived service runs many
// concurrent jobs over one graph, and rebuilding the partition (mirror
// discovery is O(|E|), slot tables O(masters+mirrors)) per job — let alone
// copying the CSR — would dominate short queries and multiply resident
// memory by the job count.
//
// SharedGraph is the read-only bundle a catalog holds instead: the graph
// plus a concurrency-safe cache of partitions keyed by (worker count,
// placement flavor). Engines constructed with Config.Shared borrow the
// cached *partition.Partitioned instead of building their own, so N
// concurrent jobs over one graph share one CSR and one partition; everything
// mutable (cur/next/pendVal/accumulator shards/checkpoints) stays per-engine.
//
// Mutation discipline: a shared partition is read-only to every borrower, and
// the runtime never writes a Partitioned after building it. Recovery reuses
// the borrowed partition as it is (a Part is a pure function of graph and
// placement, so there is nothing to recompute); a resize builds the engine a
// private one for the new width and drops the borrowed pointer. One job's
// recovery therefore cannot race another job's reads.
package core

import (
	"sync"

	"flash/graph"
	"flash/internal/partition"
)

// partKey identifies one cached partition: the worker count and placement
// flavor fully determine the partition of a fixed graph.
type partKey struct {
	workers int
	hash    bool
}

// SharedGraph is an immutable graph plus its partition cache, shared by all
// engines running jobs over the graph. Safe for concurrent use.
type SharedGraph struct {
	g  *graph.Graph
	bg *graph.BlockGraph // non-nil when the graph is an out-of-core backend

	mu    sync.Mutex
	parts map[partKey]*partition.Partitioned
}

// NewSharedGraph wraps g for sharing across engines. The graph must not be
// mutated afterwards (graph.Graph is immutable by construction).
func NewSharedGraph(g *graph.Graph) *SharedGraph {
	return &SharedGraph{g: g, parts: make(map[partKey]*partition.Partitioned)}
}

// NewSharedBlockGraph wraps an out-of-core FLASHBLK block graph for sharing:
// the skeleton is the shared topology, partitions are discovered by streaming
// the block file, and engines borrowing the share adopt the block backend
// automatically.
func NewSharedBlockGraph(bg *graph.BlockGraph) *SharedGraph {
	return &SharedGraph{g: bg.Skeleton(), bg: bg, parts: make(map[partKey]*partition.Partitioned)}
}

// Graph returns the shared topology (the skeleton, for a block-backed share).
func (s *SharedGraph) Graph() *graph.Graph { return s.g }

// Block returns the shared out-of-core backend, or nil for an in-memory
// share.
func (s *SharedGraph) Block() *graph.BlockGraph { return s.bg }

// Partition returns the cached partition for the given membership, building
// it on first use. Concurrent callers asking for the same key block on the
// single build and then share the one result; the returned value must be
// treated as read-only.
func (s *SharedGraph) Partition(workers int, hashPlacement bool) *partition.Partitioned {
	key := partKey{workers: workers, hash: hashPlacement}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.parts[key]; ok {
		return p
	}
	var topo partition.Adjacency = s.g
	if s.bg != nil {
		topo = s.bg
	}
	p := partition.New(topo, newPlacement(hashPlacement, s.g.NumVertices(), workers))
	s.parts[key] = p
	return p
}

// Partitions returns the number of distinct partitions currently cached.
func (s *SharedGraph) Partitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parts)
}

// SharedBytes returns the resident footprint of every cached partition's
// derived structures. Together with Graph().MemBytes() this is the memory a
// catalog pays once per graph, independent of how many jobs run over it.
func (s *SharedGraph) SharedBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, p := range s.parts {
		total += p.SharedBytes()
	}
	return total
}
