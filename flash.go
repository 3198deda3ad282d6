// Package flash is a Go implementation of FLASH, the programming model for
// distributed graph processing algorithms of Li et al. (ICDE 2023).
//
// FLASH extends Ligra's vertexSubset/VertexMap/EdgeMap model to the
// distributed setting: a graph is partitioned over workers with master–mirror
// vertex replication, every primitive is one BSP superstep, EdgeMap switches
// automatically between a dense (pull) and a sparse (push) kernel, and —
// beyond Ligra — messages may travel along arbitrary, even *virtual*, edge
// sets, enabling algorithms such as the optimized connected-components of
// Qin et al. that communicate beyond the neighborhood.
//
// A program is ordinary Go driver code chaining the primitives:
//
//	type props struct{ Dis int32 }
//
//	e, _ := flash.NewEngine[props](g, flash.WithWorkers(4))
//	defer e.Close()
//	U := e.VertexMap(e.All(), nil, func(v flash.Vertex[props]) props {
//	    if v.ID == root { return props{0} }
//	    return props{Dis: 1 << 30}
//	})
//	U = e.VertexMap(e.All(), func(v flash.Vertex[props]) bool { return v.ID == root }, nil)
//	for U.Size() != 0 {
//	    U = e.EdgeMap(U, e.E(), nil, update, cond, reduce)
//	}
//
// The algorithm suite from the paper lives in flash/algo; the runtime
// (FLASHWARE) lives in internal packages.
package flash

import (
	"time"

	"flash/graph"
	"flash/internal/comm"
	"flash/internal/core"
	"flash/metrics"
)

// VID identifies a vertex (dense ids 0..n-1).
type VID = graph.VID

// NoVertex is the "no vertex" sentinel for parent-pointer style properties.
const NoVertex = graph.NoVertex

// Vertex is the view of a vertex passed to user callbacks: id, degrees in
// the base graph, and a pointer to its property value.
type Vertex[V any] = core.Vtx[V]

// VertexSubset is the paper's distributed vertexSubset type.
type VertexSubset = core.Subset

// EdgeSet is the H parameter of EdgeMap; see E, Reverse, JoinEU, JoinEE,
// OutEdges and InEdges.
type EdgeSet[V any] = core.EdgeSet[V]

// Ctx gives edge-set functions read access to current vertex states.
type Ctx[V any] = core.Ctx[V]

// Mode selects an update-propagation kernel.
type Mode = core.Mode

// Propagation modes.
const (
	Auto = core.Auto
	Push = core.Push
	Pull = core.Pull
)

// Option configures an Engine.
type Option func(*core.Config)

// WithWorkers sets the number of simulated workers (default 4).
func WithWorkers(n int) Option { return func(c *core.Config) { c.Workers = n } }

// WithThreads sets the number of threads per worker (default 1).
func WithThreads(n int) Option { return func(c *core.Config) { c.Threads = n } }

// WithTransport supplies a custom transport (e.g. comm.NewTCP).
func WithTransport(t comm.Transport) Option { return func(c *core.Config) { c.Transport = t } }

// WithTCP routes inter-worker frames over real loopback TCP sockets instead
// of in-memory mailboxes, exercising the full serialization and network
// path.
func WithTCP() Option { return func(c *core.Config) { c.UseTCP = true } }

// WithFullMirrors replicates every vertex on every worker. Required by
// algorithms using virtual edge sets or arbitrary cross-vertex reads
// (communication beyond neighborhood).
func WithFullMirrors() Option { return func(c *core.Config) { c.FullMirrors = true } }

// WithCollector directs runtime metrics into col.
func WithCollector(col *metrics.Collector) Option { return func(c *core.Config) { c.Collector = col } }

// ---- out-of-core block backend ----

// WithBlockCacheBytes bounds the decoded-block cache budget shared evenly by
// the engine's workers (default: 25% of the graph's decoded edge bytes,
// minimum 1 MiB). Only meaningful when the engine runs out-of-core, i.e. with
// WithGraphHandle(NewBlockGraphHandle(bg)).
func WithBlockCacheBytes(n int64) Option {
	return func(c *core.Config) { c.BlockCacheBytes = n }
}

// ---- fault tolerance ----

// FaultPlan scripts deterministic fault injection (chaos testing); see
// WithFaultPlan. Zero value = no faults.
type FaultPlan = comm.FaultPlan

// WorkerStall scripts a worker stall in a FaultPlan.
type WorkerStall = comm.WorkerStall

// WorkerCrash scripts a mid-superstep worker failure in a FaultPlan.
type WorkerCrash = comm.WorkerCrash

// WorkerKill scripts the permanent death of a worker in a FaultPlan: its
// transport endpoint is torn down for real and every call it makes fails
// until the engine cold-restarts it from a checkpoint.
type WorkerKill = comm.WorkerKill

// FrameCorrupt scripts a single-bit payload flip on one edge in a FaultPlan,
// exercising the receive-side frame-integrity path.
type FrameCorrupt = comm.FrameCorrupt

// CheckpointStore persists engine checkpoint images; see WithCheckpointStore.
type CheckpointStore = core.CheckpointStore

// CheckpointImage is one encoded engine snapshot as handed to a
// CheckpointStore.
type CheckpointImage = core.CheckpointImage

// Liveness and integrity errors surfaced by failed runs (match with
// errors.Is).
var (
	// ErrPeerStalled: a peer missed the superstep deadline, whether slow or
	// gone — the drain deadline is the only liveness clock.
	ErrPeerStalled = comm.ErrPeerStalled
	// ErrCorrupt: a frame failed its integrity check (CRC mismatch or
	// undecodable payload).
	ErrCorrupt = comm.ErrCorrupt
	// ErrEngineClosed: the operation raced or followed Engine.Close.
	ErrEngineClosed = core.ErrEngineClosed
)

// ConfigError reports an invalid engine option value (returned by NewEngine
// and Resize; match with errors.As).
type ConfigError = core.ConfigError

// NewMemCheckpointStore returns the default in-memory checkpoint store.
func NewMemCheckpointStore() CheckpointStore { return core.NewMemStore() }

// NewFileCheckpointStore returns a durable file-backed checkpoint store at
// path: versioned format, per-section CRC32-C, atomic write-then-rename.
// Checkpoints survive the loss of all in-process worker state, so a
// hard-killed worker can be cold-restarted from the file.
func NewFileCheckpointStore(path string) (CheckpointStore, error) {
	return core.NewFileStore(path)
}

// RunResult summarizes a Run: supersteps executed plus the fault-tolerance
// counters (checkpoints taken, recoveries performed, restarts after a lost
// worker).
type RunResult = core.RunResult

// WithCheckpointEvery snapshots all worker state when Run starts and every n
// successful supersteps at the BSP barrier, logs the Run's driver-visible
// outcomes, and enables recovery from transport failures (stalls, lost
// connections, injected crashes): restore the snapshot, re-run the program,
// pop the logged outcomes. 0 (the default) disables it: failures abort.
func WithCheckpointEvery(n int) Option { return func(c *core.Config) { c.CheckpointEvery = n } }

// WithDrainTimeout bounds how long a worker waits for a peer's next frame
// within one exchange round before the superstep fails with ErrPeerStalled.
// It is how a lost worker is detected too: a dead peer is a stalled round.
// 0 (the default) selects core.DefaultDrainTimeout (30s); negative waits
// forever.
func WithDrainTimeout(d time.Duration) Option { return func(c *core.Config) { c.DrainTimeout = d } }

// WithCheckpointStore directs checkpoint images into store — pass
// NewFileCheckpointStore for durability across permanent worker loss. The
// default (with WithCheckpointEvery) is an in-memory store. The engine never
// closes the store.
func WithCheckpointStore(store CheckpointStore) Option {
	return func(c *core.Config) { c.Store = store }
}

// WithMaxRecoveries bounds checkpoint rollbacks per engine (default 3), so a
// persistent fault cannot loop forever.
func WithMaxRecoveries(n int) Option { return func(c *core.Config) { c.MaxRecoveries = n } }

// WithFaultPlan wraps the engine's transport with deterministic seeded fault
// injection: probabilistic frame delays and corruption, within-round
// reordering, and scripted worker stalls, crashes and kills. Combine with
// WithCheckpointEvery and WithDrainTimeout to exercise the recovery
// machinery.
func WithFaultPlan(p FaultPlan) Option { return func(c *core.Config) { c.FaultPlan = &p } }

// ---- cluster (multi-process) mode ----

// ClusterSpec switches an engine into multi-process SPMD mode: this process
// computes only Resident's share, peer processes own the other workers, and
// the transport must be a connected comm.ListenTCPCluster endpoint. See
// internal/cluster for the coordinator that spawns and supervises such
// processes.
type ClusterSpec = core.ClusterSpec

// WorkerStore is one worker process's durable state directory: checkpoint
// images plus the outcome log a resumed process pops to fast-forward.
type WorkerStore = core.WorkerStore

// OpenWorkerStore opens (creating if needed) worker w's durable state
// directory under dir.
func OpenWorkerStore(dir string, w int) (*WorkerStore, error) {
	return core.OpenWorkerStore(dir, w)
}

// WithCluster switches the engine into cluster mode with the given spec. A
// failure ends the process; the restarted fleet pops its Stores' outcome logs.
// Incompatible with fault plans, resize policies, shared graphs and the
// block backend; requires WithTransport carrying a cluster endpoint.
func WithCluster(spec ClusterSpec) Option {
	return func(c *core.Config) { c.Cluster = &spec }
}

// ---- elastic membership ----

// StepInfo is the per-superstep snapshot handed to a ResizePolicy: supersteps
// completed, the frontier size the step produced, the current worker count,
// and the graph's vertex count.
type StepInfo = core.StepInfo

// ResizePolicy decides the desired worker count after each superstep;
// returning 0 (or the current count) keeps the membership unchanged. See
// WithResizePolicy, DensityPolicy and SchedulePolicy.
type ResizePolicy = core.ResizePolicy

// WithResizePolicy consults policy after every successful superstep and
// resizes the engine at the barrier when it asks for a different worker
// count. Combine with WithCheckpointEvery so a fault during the change is
// recovered from a durable image. Every transport supports it: Resize is part
// of the transport interface.
func WithResizePolicy(policy ResizePolicy) Option {
	return func(c *core.Config) { c.ResizePolicy = policy }
}

// DensityPolicy returns a frontier-density-driven ResizePolicy: scale out to
// maxWorkers while the frontier is dense (≥ 1/8 of the vertices), scale in
// to minWorkers when it is sparse (≤ 1/64), and keep the current membership
// in between — the hysteresis band stops resize thrash on the way down.
func DensityPolicy(minWorkers, maxWorkers int) ResizePolicy {
	return func(s StepInfo) int {
		switch {
		case s.Frontier*8 >= s.Vertices:
			return maxWorkers
		case s.Frontier*64 <= s.Vertices:
			return minWorkers
		default:
			return 0
		}
	}
}

// SchedulePolicy returns a ResizePolicy driven by an explicit superstep →
// worker-count table (resize after the given superstep count has completed).
// Supersteps absent from the table keep the current membership.
func SchedulePolicy(schedule map[int]int) ResizePolicy {
	return func(s StepInfo) int { return schedule[s.Superstep] }
}

// Engine runs FLASH programs over one property type V (a flat struct; see
// comm.Codec for the supported field kinds).
type Engine[V any] struct {
	c *core.Engine[V]
}

// NewEngine partitions g over the configured workers and allocates the
// per-worker property state.
func NewEngine[V any](g *graph.Graph, opts ...Option) (*Engine[V], error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	ce, err := core.NewEngine[V](g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine[V]{c: ce}, nil
}

// Close releases the engine's transport.
func (e *Engine[V]) Close() error { return e.c.Close() }

// Graph returns the topology the engine runs over.
func (e *Engine[V]) Graph() *graph.Graph { return e.c.Graph() }

// Workers returns the worker count.
func (e *Engine[V]) Workers() int { return e.c.Workers() }

// Resize changes the worker count to n at the current superstep barrier: the
// barrier's checkpoint image is restored into an n-worker membership, which
// re-homes master state and rebuilds mirrors. Output is byte-identical to a
// run that used n workers throughout. Inside a Run with checkpointing
// enabled the resize is crash-safe: a failure after the membership swap is
// recovered by Run from the barrier's image into the new membership under
// the MaxRecoveries budget; outside Run it fails the engine.
// VertexSubsets held across a resize remain valid.
func (e *Engine[V]) Resize(n int) error { return e.c.Resize(n) }

// Metrics returns the runtime metrics collector.
func (e *Engine[V]) Metrics() *metrics.Collector { return e.c.Metrics() }

// ReplicationFactor returns the average copies per vertex of the partition.
func (e *Engine[V]) ReplicationFactor() float64 { return e.c.ReplicationFactor() }

// StateBytes returns the resident per-worker property-state footprint summed
// over all workers: slot-indexed current states, next/pending master buffers,
// materialized accumulator shards, per-step bitsets, and slot-table
// auxiliaries. Deterministic for a fixed graph and configuration, so benches
// can guard it against regression.
func (e *Engine[V]) StateBytes() uint64 { return e.c.StateBytes() }

// CheckMirrorCoherence verifies that every mirror equals its master's state
// according to eq — the §IV-A consistency invariant. Driver-side, intended
// for tests.
func (e *Engine[V]) CheckMirrorCoherence(eq func(a, b V) bool) error {
	return e.c.CheckMirrorCoherence(eq)
}

// NumVertices returns |V| of the graph.
func (e *Engine[V]) NumVertices() int { return e.c.Graph().NumVertices() }

// Run executes a FLASH driver program with fault handling engaged: a
// superstep failure that checkpoint recovery cannot absorb is
// returned as an error (with all worker goroutines joined and the transport
// aborted) instead of panicking, along with the run's fault-tolerance
// counters. Programming errors (mixed-engine subsets, nil reduce in push
// mode, ...) still panic.
// Recovery calls program again from the start, so it must get everything it
// knows from engine outcomes (subsets, Gather, Fold, Sum, Get) and build its
// own state (a DSU, a result slice) inside itself. Nothing outside Run is
// recovered.
func (e *Engine[V]) Run(program func() error) (RunResult, error) { return e.c.Run(program) }

// Err returns the first unrecovered superstep failure, or nil. Once failed,
// the engine refuses further supersteps.
func (e *Engine[V]) Err() error { return e.c.Err() }
