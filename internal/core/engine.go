// Package core implements FLASHWARE, the paper's middleware for distributed
// graph processing (§IV): per-worker master–mirror state with
// current/next-state semantics, the dense (pull) and sparse (push) EDGEMAP
// kernels with automatic mode switching, VERTEXMAP, mirror synchronization
// restricted to necessary mirrors or critical steps, and the exchange
// protocol layered on comm.Transport.
//
// The public `flash` package at the module root wraps this engine with the
// paper-shaped API; algorithms should not import core directly.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/comm"
	"flash/internal/partition"
	"flash/metrics"
)

// Mode selects the update-propagation kernel for an EdgeMap.
type Mode int

const (
	// Auto picks push or pull per step from frontier density (§III-C).
	Auto Mode = iota
	// Push forces EDGEMAPSPARSE.
	Push
	// Pull forces EDGEMAPDENSE.
	Pull
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Push:
		return "push"
	case Pull:
		return "pull"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of simulated workers ("processes"); default 4.
	Workers int
	// Threads is the number of parallel threads per worker; default 1.
	Threads int
	// Transport carries inter-worker frames; default comm.NewMem(Workers).
	Transport comm.Transport
	// UseTCP builds a loopback-TCP transport when Transport is nil.
	UseTCP bool
	// UseHashPlacement selects modulo placement instead of contiguous
	// ranges.
	UseHashPlacement bool
	// Mode forces a propagation mode for all EdgeMaps (default Auto).
	Mode Mode
	// FullMirrors replicates every vertex on every worker and broadcasts all
	// master updates. Required by algorithms that communicate beyond the
	// neighborhood (virtual edge sets, arbitrary get), per §IV-C.
	FullMirrors bool
	// DisableNecessaryMirrors broadcasts every sync to all workers even when
	// mirror lists are available (ablation toggle for §IV-C).
	DisableNecessaryMirrors bool
	// BatchBytes, when positive, flushes outgoing buffers eagerly once they
	// exceed this size so transfer overlaps the remaining work (§IV-C,
	// "Overlap communication with computation"). Zero sends only at round
	// end.
	BatchBytes int
	// Collector receives runtime metrics; nil allocates a private one.
	Collector *metrics.Collector

	// DrainTimeout bounds how long a worker waits for a peer's next frame
	// within one exchange round before the superstep fails with
	// comm.ErrPeerStalled. It is the engine's only liveness clock: a hung
	// peer and a dead one both fail the round this way. 0 selects
	// DefaultDrainTimeout so a stalled or dead peer always converts to an
	// error within a bounded window; negative waits forever (the
	// pre-fault-tolerance behavior).
	DrainTimeout time.Duration
	// Store receives checkpoint images. Defaults to an in-memory store when
	// checkpointing is enabled; pass a FileStore to survive the loss of
	// in-process worker state. The engine never closes the store.
	Store CheckpointStore
	// CheckpointEvery snapshots all worker state when Run starts and every n
	// successful supersteps at the barrier (consistent by BSP construction),
	// logs the driver-visible outcomes of the Run, and enables recovery from
	// transport failures: restore the image, call the program again, pop the
	// logged outcomes. 0 disables checkpointing.
	CheckpointEvery int
	// MaxRecoveries bounds checkpoint rollbacks per engine (default 3 when
	// checkpointing is enabled); the budget stops a persistent fault from
	// looping forever.
	MaxRecoveries int
	// FaultPlan, when non-nil, wraps the transport with comm.NewFaulty for
	// deterministic fault injection (chaos testing).
	FaultPlan *comm.FaultPlan
	// ResizePolicy, when non-nil, is consulted after every successful
	// superstep; returning a worker count different from the current one
	// triggers an automatic Engine.Resize at the barrier. Checkpointing makes
	// the change crash-safe inside Run.
	ResizePolicy ResizePolicy
	// Shared, when non-nil, supplies the immutable half of the engine — the
	// graph and a cached read-only partition — so concurrent engines over one
	// catalog graph share a single CSR and partition instead of rebuilding
	// them per run. The graph passed to NewEngine must be Shared's graph. A
	// share built by NewSharedBlockGraph also selects the out-of-core edge
	// backend: the engine's base edge set iterates FLASHBLK blocks through a
	// bounded per-worker cache instead of in-memory CSR rows.
	Shared *SharedGraph
	// BlockCacheBytes bounds the total decoded-block cache budget, split
	// evenly across workers. 0 with a block-backed Shared selects 25% of the
	// graph's decoded edge bytes (minimum 1 MiB). Ignored otherwise.
	BlockCacheBytes int64
	// RunStats, when non-nil, receives the engine's final summary (RunResult
	// counters plus the private state footprint) when the engine closes. A
	// serving layer uses it to account each job's mutable state without
	// reaching into engine internals.
	RunStats func(RunStats)
	// Cluster, when non-nil, switches the engine into multi-process SPMD
	// mode: this process computes only Cluster.Resident, peers own the other
	// workers, and Transport must be a cross-process endpoint
	// (comm.ListenTCPCluster) already connected to them. In-process
	// rollback recovery, resize, fault plans, shared graphs and the block
	// backend are unavailable in cluster mode.
	Cluster *ClusterSpec
}

// RunStats is the final summary handed to Config.RunStats when the engine
// closes: the cumulative fault-tolerance counters, the worker count at the
// end of the last run, and StateBytes — the job-private mutable state, which
// is the memory a concurrent job costs on top of the shared graph and
// partition.
type RunStats struct {
	Result     RunResult
	StateBytes uint64
	Workers    int
}

// StepInfo is the per-superstep snapshot handed to a ResizePolicy.
type StepInfo struct {
	// Superstep is the number of supersteps completed so far.
	Superstep int
	// Frontier is the active-vertex count produced by the step just finished.
	Frontier int
	// Workers is the current membership size.
	Workers int
	// Vertices is the graph's vertex count.
	Vertices int
}

// ResizePolicy decides the desired worker count after a superstep. Returning
// 0 (or the current count) keeps the membership unchanged.
type ResizePolicy func(StepInfo) int

// ConfigError reports an invalid Engine configuration value. It is returned
// by NewEngine (and Resize) instead of letting a bad value hang a barrier or
// silently misbehave at runtime.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s %s", e.Field, e.Reason)
}

// ErrEngineClosed is returned by operations racing or following Engine.Close.
// It is terminal: recovery never retries a run the user tore down.
var ErrEngineClosed = errors.New("core: engine closed")

// DefaultDrainTimeout is the superstep deadline applied when Config leaves
// DrainTimeout zero: generous enough that no healthy exchange ever trips it,
// small enough that a hung peer surfaces as an error instead of a silent
// forever-hang.
const DefaultDrainTimeout = 30 * time.Second

func (c *Config) fillDefaults() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.CheckpointEvery > 0 && c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Collector == nil {
		c.Collector = metrics.New()
	}
	if c.MaxRecoveries == 0 {
		c.MaxRecoveries = 3
	}
	if c.Shared != nil && c.Shared.bg != nil && c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = int64(c.Shared.bg.EdgeBytes() / 4)
		if c.BlockCacheBytes < 1<<20 {
			c.BlockCacheBytes = 1 << 20
		}
	}
}

func (c *Config) validate() error {
	if c.Workers < 1 {
		return &ConfigError{"Workers", fmt.Sprintf("must be >= 1, got %d", c.Workers)}
	}
	if c.Threads < 1 {
		return &ConfigError{"Threads", fmt.Sprintf("must be >= 1, got %d", c.Threads)}
	}
	if c.Transport != nil && c.Transport.Workers() != c.Workers {
		return &ConfigError{"Transport", fmt.Sprintf("has %d workers, config has %d",
			c.Transport.Workers(), c.Workers)}
	}
	if c.BatchBytes < 0 {
		return &ConfigError{"BatchBytes", fmt.Sprintf("must be >= 0, got %d", c.BatchBytes)}
	}
	if c.CheckpointEvery < 0 {
		return &ConfigError{"CheckpointEvery", fmt.Sprintf("must be >= 0, got %d", c.CheckpointEvery)}
	}
	if c.BlockCacheBytes < 0 {
		return &ConfigError{"BlockCacheBytes", fmt.Sprintf("must be >= 0, got %d", c.BlockCacheBytes)}
	}
	if cl := c.Cluster; cl != nil {
		if cl.Resident < 0 || cl.Resident >= c.Workers {
			return &ConfigError{"Cluster.Resident", fmt.Sprintf("must be in [0,%d), got %d", c.Workers, cl.Resident)}
		}
		if c.Transport == nil {
			return &ConfigError{"Cluster", "requires an explicit cross-process Transport (comm.ListenTCPCluster)"}
		}
		if cl.ResumeSeq > 0 && cl.Store == nil {
			return &ConfigError{"Cluster.ResumeSeq", "requires Cluster.Store"}
		}
		// These features assume every worker's state lives in this process.
		if c.ResizePolicy != nil {
			return &ConfigError{"ResizePolicy", "unsupported in cluster mode"}
		}
		if c.FaultPlan != nil {
			return &ConfigError{"FaultPlan", "unsupported in cluster mode (faults are injected at the process level)"}
		}
		if c.Shared != nil {
			return &ConfigError{"Shared", "unsupported in cluster mode"}
		}
	}
	return nil
}

// Vtx is the vertex view passed to user callbacks: the id, the degrees in
// the base graph, and a pointer to the property value the callback may read
// (and, for VertexMap map functions, write).
type Vtx[V any] struct {
	ID    graph.VID
	Deg   uint32 // out-degree in G
	InDeg uint32 // in-degree in G
	Val   *V
}

// Engine is one FLASHWARE instance: a graph partitioned over Workers
// workers, each holding property state for its masters and mirrors.
type Engine[V any] struct {
	g     *graph.Graph
	bg    *graph.BlockGraph // out-of-core edge backend of g (cfg.Shared's); nil in memory
	part  *partition.Partitioned
	place partition.Placement
	tr    comm.Transport
	codec comm.Codec[V]
	cfg   Config
	met   *metrics.Collector

	workers []*worker[V]

	// errs and wg are parallelWorkers' per-call scratch, kept across calls
	// so a superstep allocates neither; errs is resized when the worker set
	// changes.
	errs []error
	wg   sync.WaitGroup

	// Lifecycle: opMu guards closed and the in-flight operation count; opCond
	// is signaled when ops drops to zero so a concurrent Close can wait for an
	// in-flight Run/Resize to unwind after the abort broadcast kicks it out of
	// its exchange rounds.
	opMu   sync.Mutex
	opCond *sync.Cond
	closed bool
	ops    int

	// Membership history: placeHist[i] is the placement of membership epoch i
	// and memberEpoch indexes the current one. Subsets are stamped with the
	// epoch they were built under; checkSubset lazily remaps a stale subset's
	// bits through the recorded placement into the current one, so driver-held
	// handles survive a resize. The history only grows, so a stamp is always
	// resolvable.
	placeHist   []partition.Placement
	memberEpoch int

	// Fault-tolerance state (driver-side, single-threaded between steps).
	failed     error           // first unrecovered superstep failure
	store      CheckpointStore // snapshot persistence (cfg.Store)
	ckptSeq    uint64          // sequence number of the last image saved
	stepsSince int             // supersteps since the last checkpoint
	recoveries int             // rollbacks performed so far
	running    bool            // inside Run: a failure may call the program again

	// Outcome log (checkpoint.go): logPos is the driver's next record
	// position, logHigh the first one this Run has not reached, and imgRecs
	// the record count the stored in-process image holds the effect of.
	log                      []logRecord
	logPos, logHigh, imgRecs int

	// Cluster mode (Config.Cluster non-nil): resident is the one worker this
	// process computes (-1 in-process) and cstore the durable checkpoint+log
	// store (see cluster.go).
	resident int
	cstore   *WorkerStore
}

// worker is the per-worker state ("process memory").
type worker[V any] struct {
	id   int
	eng  *Engine[V]
	part *partition.Part

	// st is the worker's compact slot layout: local masters at slots
	// [0, MasterCount) (slot == local index), then mirrors sorted by gid.
	// Under FullMirrors every non-master is a mirror, so every vertex is
	// resident and SlotCount == |V|.
	st *partition.SlotTable

	// view is the pull kernel's layout over st (partition.PullView), bound by
	// the worker's first pull step (loadView): the partition's shared view,
	// or under FullMirrors, whose st is not the partition's, the worker's own
	// degree table with no rows.
	view *partition.PullView

	// cur holds the current states (§IV-A) indexed by slot: one entry per
	// resident vertex (local masters and mirrors), O(masters+mirrors)
	// instead of O(|V|).
	cur []V

	// next holds next states for local masters (by local index == slot); the
	// step's output members mark which are populated.
	next []V

	// acc holds the sparse-kernel accumulators over the slot space (the
	// push-target universe: every push target is a local master or mirror),
	// reused across steps: one (values, membership) shard per thread, so
	// phase-1 pushes never lock — threads accumulate privately and mergeAcc
	// folds shards 1.. into shard 0 at 64-aligned chunk boundaries. Shard 0
	// is allocated eagerly; shards 1.. materialize on the first parallel
	// phase-1 (ensureAccShards), so dense-mode algorithms never pay for
	// them. With Threads=1 only shard 0 exists and the layout matches the
	// old single-accumulator design.
	acc []accShard[V]

	// pend* accumulate partial updates arriving at this master (by local
	// index) during the sparse exchange.
	pendVal []V
	pendSet *bitset.Bitset

	// accList and pendList record, in touch order, the slots acc[0].set and
	// the masters pendSet gained this superstep — accList packs slot<<32|gid
	// — so a sparse step folds, ships, applies and clears only what it
	// touched. Both are sized once, at listMax of their bitmap; a step that
	// touches more sets accOver/pendOver and falls back to scanning the
	// words. Both bitmaps and lists are empty at every superstep boundary.
	accList  []uint64
	pendList []int32
	accOver  bool
	pendOver bool

	// frontier is this worker's copy of the global frontier bitmap used by
	// the dense kernel; fenc is the reused frontier-frame encode scratch.
	// onFrontier is broadcastFrontier's Drain handler (decodeFrontierFrame,
	// bound once in initKV), frontierErr the round's first frame error.
	frontier    *bitset.Bitset
	fenc        []byte
	onFrontier  func(from int, data []byte)
	frontierErr error

	// outKV are the per-destination KV frame encoders for the current round
	// (pool-backed; frames are recycled by the receiver's drain).
	outKV []comm.KVWriter[V]

	// encKV/encMsgs are the per-(thread, destination) encoders the parallel
	// mirror-sync path shards over; nil when Threads == 1.
	encKV   [][]comm.KVWriter[V]
	encMsgs []int

	// pool is the worker's persistent parfor thread pool (Threads-1 helper
	// goroutines), started lazily on the first multi-chunk parforT and
	// joined at Close. nil until started.
	pool *threadPool

	// bcache is the worker's bounded cache of decoded FLASHBLK blocks; nil
	// without an out-of-core backend. Per-worker so the block-read hot path
	// never contends across workers.
	bcache *graph.BlockCache

	// rec is the worker's counts for the current superstep, written only by
	// its own goroutine and folded into the engine collector at the barrier.
	rec *metrics.Record

	// ctxs holds one Ctx per parfor thread (index = parforT's chunk index t;
	// driver-side and sequential code uses ctxs[0]): a Ctx carries the
	// thread's out-of-core block cursor, which must not be shared.
	ctxs []Ctx[V]

	// pushers holds one phase-1 push state per parfor thread (index t, like
	// ctxs), and kv the KV-round decode state, whose method values are bound
	// once here: a superstep builds no closure for either.
	pushers []pusher[V]
	kv      kvDrain[V]
}

// accShard is one thread's private phase-1 accumulator.
type accShard[V any] struct {
	val []V
	set *bitset.Bitset
}

// NewEngine partitions g and allocates per-worker state.
func NewEngine[V any](g *graph.Graph, cfg Config) (*Engine[V], error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shared != nil && cfg.Shared.Graph() != g {
		return nil, &ConfigError{"Shared", "wraps a different graph than the one passed to NewEngine"}
	}
	tr := cfg.Transport
	if tr == nil {
		if cfg.UseTCP {
			var err error
			tr, err = comm.NewTCP(cfg.Workers)
			if err != nil {
				return nil, err
			}
		} else {
			tr = comm.NewMem(cfg.Workers)
		}
	}
	if cfg.FaultPlan != nil {
		tr = comm.NewFaulty(tr, *cfg.FaultPlan)
	}
	if cfg.DrainTimeout > 0 {
		tr.SetDrainTimeout(cfg.DrainTimeout)
	}
	var part *partition.Partitioned
	var bg *graph.BlockGraph
	if cfg.Shared != nil {
		// A shared block graph carries the backend with it, so every borrowing
		// engine runs out-of-core without per-job plumbing.
		part = cfg.Shared.Partition(cfg.Workers, cfg.UseHashPlacement)
		bg = cfg.Shared.Block()
	} else {
		part = partition.New(g, newPlacement(cfg.UseHashPlacement, g, cfg.Workers))
	}
	place := part.Place
	e := &Engine[V]{
		g:     g,
		bg:    bg,
		part:  part,
		place: place,
		tr:    tr,
		codec: comm.CodecFor[V](),
		cfg:   cfg,
		met:   cfg.Collector,
	}
	e.opCond = sync.NewCond(&e.opMu)
	e.placeHist = []partition.Placement{place}
	e.store = cfg.Store
	e.resident = -1
	if cfg.Cluster != nil {
		e.resident = cfg.Cluster.Resident
	}
	e.workers = make([]*worker[V], cfg.Workers)
	for wi := range e.workers {
		e.workers[wi] = e.newWorker(wi)
	}
	if cfg.Cluster != nil {
		if err := e.initCluster(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newWorker allocates worker wi's state from the current partition, at
// construction and in every membership swap: everything a worker holds must
// be derivable from the graph, the placement, and (via restoreImage) the
// stored image.
func (e *Engine[V]) newWorker(wi int) *worker[V] {
	part, place, workers := e.part, e.place, e.cfg.Workers
	cfg, n := e.cfg, e.g.NumVertices()
	st := part.Parts[wi].Slots
	if cfg.FullMirrors {
		st = partition.FullSlotTable(place, wi, n)
	}
	if e.resident >= 0 && wi != e.resident {
		// Cluster shell: the worker's state lives in a peer process. Only the
		// shared placement metadata (and an empty record, for the fold loop)
		// is kept; every state slice stays nil so any accidental local use
		// fails loudly instead of silently diverging from the real owner.
		w := &worker[V]{id: wi, eng: e, part: part.Parts[wi], st: st, rec: new(metrics.Record)}
		w.initCtxs()
		return w
	}
	w := &worker[V]{
		id:       wi,
		eng:      e,
		part:     part.Parts[wi],
		st:       st,
		cur:      make([]V, st.SlotCount()),
		next:     make([]V, place.LocalCount(wi)),
		acc:      make([]accShard[V], cfg.Threads),
		pendVal:  make([]V, place.LocalCount(wi)),
		pendSet:  bitset.New(place.LocalCount(wi)),
		accList:  make([]uint64, 0, listMax(st.SlotCount())),
		pendList: make([]int32, 0, listMax(place.LocalCount(wi))),
		frontier: bitset.New(n),
		outKV:    make([]comm.KVWriter[V], workers),
		rec:      new(metrics.Record),
	}
	// Shard 0 serves the sequential push path and the fold target of
	// mergeAcc; the per-thread shards 1.. are lazy (ensureAccShards).
	w.acc[0] = accShard[V]{val: make([]V, st.SlotCount()), set: bitset.New(st.SlotCount())}
	if bg := e.bg; bg != nil {
		budget := cfg.BlockCacheBytes / int64(workers)
		if budget < 1 {
			budget = 1
		}
		w.bcache = graph.NewBlockCache(bg, budget)
	}
	for to := range w.outKV {
		w.outKV[to].Init(e.codec)
	}
	w.initKV()
	if cfg.Threads > 1 {
		w.encKV = make([][]comm.KVWriter[V], cfg.Threads)
		w.encMsgs = make([]int, cfg.Threads)
		for t := range w.encKV {
			w.encKV[t] = make([]comm.KVWriter[V], workers)
			for to := range w.encKV[t] {
				w.encKV[t][to].Init(e.codec)
			}
		}
	}
	w.initCtxs()
	w.initPushers()
	return w
}

// initCtxs builds the worker's per-thread callback contexts.
func (w *worker[V]) initCtxs() {
	w.ctxs = make([]Ctx[V], w.eng.cfg.Threads)
	for t := range w.ctxs {
		c := &w.ctxs[t]
		c.G, c.w = w.eng.g, w
		c.collect = c.appendEdge
	}
}

// Graph returns the underlying topology.
func (e *Engine[V]) Graph() *graph.Graph { return e.g }

// Workers returns the configured worker count.
func (e *Engine[V]) Workers() int { return e.cfg.Workers }

// Metrics returns the engine's metrics collector.
func (e *Engine[V]) Metrics() *metrics.Collector { return e.met }

// Config returns the engine's effective configuration.
func (e *Engine[V]) Config() Config { return e.cfg }

// ReplicationFactor exposes the partition quality metric.
func (e *Engine[V]) ReplicationFactor() float64 { return e.part.ReplicationFactor() }

// beginOp registers an in-flight Run/Resize; it fails with ErrEngineClosed
// once Close has been called.
func (e *Engine[V]) beginOp() error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.ops++
	return nil
}

// endOp retires an in-flight operation, waking a Close waiting for quiesce.
func (e *Engine[V]) endOp() {
	e.opMu.Lock()
	e.ops--
	if e.ops == 0 {
		e.opCond.Broadcast()
	}
	e.opMu.Unlock()
}

// isClosed reports whether Close has started.
func (e *Engine[V]) isClosed() bool {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	return e.closed
}

// Close releases the transport and joins the workers' parfor thread pools.
// It is idempotent and safe to call concurrently with an in-flight Run or
// Resize: the first Close marks the engine closed, aborts the transport so
// blocked exchange rounds unwind with ErrEngineClosed (terminal — recovery
// never retries it), waits for in-flight operations to drain, then tears the
// transport down. The engine must not be used afterwards.
func (e *Engine[V]) Close() error {
	e.opMu.Lock()
	if e.closed {
		// A concurrent first Close may still be draining; wait so every
		// returned Close means the teardown finished.
		for e.ops > 0 {
			e.opCond.Wait()
		}
		e.opMu.Unlock()
		return nil
	}
	e.closed = true
	if e.ops > 0 {
		e.tr.Abort(ErrEngineClosed)
		for e.ops > 0 {
			e.opCond.Wait()
		}
	}
	e.opMu.Unlock()
	retireWorkers(e.workers)
	if e.cfg.RunStats != nil {
		// Ops have drained and pools are stopped, so the cumulative counters
		// and StateBytes are a stable final snapshot of this engine's work.
		e.cfg.RunStats(RunStats{Result: e.runResult(), StateBytes: e.StateBytes(), Workers: e.cfg.Workers})
	}
	return e.tr.Close()
}

// parallelWorkers runs f once per worker concurrently and waits; it then
// folds each worker's record into the engine collector, one record per
// (superstep, worker). The calling
// goroutine runs the first worker's share itself and spawns a goroutine for
// each other one: it is already running, while a spawned goroutine waits for
// an idle vCPU to pick it up, and a peer blocked in the first exchange round
// waits with it. In cluster mode the one resident worker runs with no
// goroutine at all.
//
// Error propagation: the first worker to fail broadcasts an abort through
// the transport so peers blocked in exchange rounds unblock promptly with
// comm.ErrAborted, and the call returns only once the caller's share has
// returned and every spawned goroutine is joined — a failing superstep leaks
// no goroutines. The returned error is the root cause: a worker's
// comm.KillError about itself first (its peers saw only a stalled round),
// then the first non-abort error, then the secondary comm.ErrAborted ones it
// triggered. A panic inside a worker, the caller's share included, is
// converted to a non-recoverable error so the abort broadcast still runs.
//
//flash:amortized one goroutine spawn per worker after the first, per superstep
func (e *Engine[V]) parallelWorkers(f func(w *worker[V]) error) error {
	if len(e.errs) != len(e.workers) {
		e.errs = make([]error, len(e.workers))
	}
	clear(e.errs)
	var mine *worker[V]
	for _, w := range e.workers {
		if e.resident >= 0 && w.id != e.resident {
			continue // cluster shell: the peer process runs this worker
		}
		if mine == nil {
			mine = w
			continue
		}
		e.wg.Add(1)
		go e.spawnedWorker(w, f)
	}
	if mine != nil {
		e.runWorker(mine, f)
	}
	e.wg.Wait()
	for _, w := range e.workers {
		e.met.Fold(w.rec)
	}
	var first, secondary error
	for wi, err := range e.errs {
		switch {
		case err == nil:
		case selfKill(err, wi):
			return fmt.Errorf("core: worker %d: superstep failed: %w", wi, err)
		case !errors.Is(err, comm.ErrAborted):
			if first == nil {
				first = fmt.Errorf("core: worker %d: superstep failed: %w", wi, err)
			}
		case secondary == nil:
			secondary = fmt.Errorf("core: worker %d: superstep aborted: %w", wi, err)
		}
	}
	if first != nil {
		return first
	}
	return secondary
}

// spawnedWorker is runWorker on a goroutine parallelWorkers joins.
func (e *Engine[V]) spawnedWorker(w *worker[V], f func(w *worker[V]) error) {
	defer e.wg.Done()
	e.runWorker(w, f)
}

// runWorker runs worker w's share of a superstep and records its failure in
// errs[w.id], broadcasting the abort that releases its peers.
func (e *Engine[V]) runWorker(w *worker[V], f func(w *worker[V]) error) {
	defer func() {
		if r := recover(); r != nil {
			e.errs[w.id] = &workerPanic{worker: w.id, value: r, stack: debug.Stack()}
			e.tr.Abort(comm.ErrAborted)
		}
	}()
	if err := f(w); err != nil {
		e.errs[w.id] = err
		// A killed worker dies silently: no abort broadcast, so its peers
		// detect the loss at their drain deadline, exactly as a real process
		// death would surface.
		if !selfKill(err, w.id) {
			e.tr.Abort(comm.ErrAborted)
		}
	}
}

// selfKill reports whether err is worker w's comm.KillError about itself.
func selfKill(err error, w int) bool {
	var ke *comm.KillError
	return errors.As(err, &ke) && ke.Worker == w
}

// workerPanic wraps a panic that escaped a worker goroutine. It is never
// recovered from a checkpoint: a deterministic callback panic would fire
// again on the re-run.
type workerPanic struct {
	worker int
	value  any
	stack  []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("core: worker %d panicked: %v\n%s", p.worker, p.value, p.stack)
}

// send ships one frame and counts its payload bytes into the worker's
// record. No transport retries a send, so an error here fails the round.
//
//flash:hotpath
func (w *worker[V]) send(to int, data []byte) error {
	if err := w.eng.tr.Send(w.id, to, data); err != nil {
		return err
	}
	w.rec.Bytes += uint64(len(data))
	return nil
}

// threadPool is a worker's persistent set of parfor helper goroutines.
// parforT used to spawn fresh goroutines for every phase of every superstep;
// the pool starts Threads-1 helpers once and reuses them: each parforJob is
// broadcast to the helpers through a buffered channel and the chunks are
// claimed by atomic fetch-add, with the calling goroutine working alongside
// the helpers. Stale job copies left in the channel after all chunks are
// claimed drain as instant no-ops.
type threadPool struct {
	jobs chan *parforJob
}

// parforJob is one parfor invocation: fixed 64-aligned chunking with chunk
// index t == chunk number, so every runner that claims chunk t is the unique
// user of the per-thread scratch keyed by t.
type parforJob struct {
	f       func(t, lo, hi int)
	chunk   int
	total   int
	nchunks int32
	next    atomic.Int32
	wg      sync.WaitGroup
}

// run claims and executes chunks until the job is exhausted.
func (j *parforJob) run() {
	for {
		t := int(j.next.Add(1) - 1)
		if t >= int(j.nchunks) {
			return
		}
		lo := t * j.chunk
		hi := lo + j.chunk
		if hi > j.total {
			hi = j.total
		}
		j.f(t, lo, hi)
		j.wg.Done()
	}
}

func newThreadPool(helpers int) *threadPool {
	// Buffer two broadcasts' worth of job copies so back-to-back parfor
	// phases never block on a helper still draining a finished job.
	p := &threadPool{jobs: make(chan *parforJob, 2*helpers+1)}
	for i := 0; i < helpers; i++ {
		go func() {
			for job := range p.jobs {
				job.run()
			}
		}()
	}
	return p
}

// stop joins the helper goroutines. The pool must be idle.
func (p *threadPool) stop() { close(p.jobs) }

// parfor splits [0, total) into 64-aligned chunks over the worker's threads
// and runs them concurrently. Alignment guarantees concurrent bitset writes
// on disjoint chunks never touch the same word.
//
//flash:amortized one job descriptor per parallel region
func (w *worker[V]) parfor(total int, f func(lo, hi int)) {
	w.parforT(total, func(_, lo, hi int) { f(lo, hi) })
}

// parforT is parfor with a stable chunk index t passed to f, for callers
// keeping per-thread scratch (accumulator shards, encode buffers). The chunk
// size ceil(total/Threads) rounded up to 64 guarantees t < Config.Threads.
// Multi-chunk invocations run on the worker's persistent thread pool; the
// calling goroutine participates, so the pool only needs Threads-1 helpers.
//
//flash:amortized one job descriptor per parallel region
func (w *worker[V]) parforT(total int, f func(t, lo, hi int)) {
	threads := w.eng.cfg.Threads
	if threads == 1 || total < 128 {
		f(0, 0, total)
		return
	}
	chunk := (total + threads - 1) / threads
	chunk = (chunk + 63) &^ 63
	nchunks := (total + chunk - 1) / chunk
	if nchunks == 1 {
		f(0, 0, total)
		return
	}
	if w.pool == nil {
		// Lazy start; races are impossible because a worker's supersteps
		// are serialized (parallelWorkers joins before the next phase).
		w.pool = newThreadPool(threads - 1)
	}
	job := &parforJob{f: f, chunk: chunk, total: total, nchunks: int32(nchunks)}
	job.wg.Add(nchunks)
	for i := 1; i < nchunks; i++ {
		w.pool.jobs <- job
	}
	job.run()
	job.wg.Wait()
}

// publishNext copies the buffered next states of the updated masters into
// cur: a list in one pass, a bitmap in parallel over 64-aligned chunks
// (distinct local indices map to distinct masters, so the writes never
// collide). A master's slot is its local index, so no id translation is
// needed.
//
//flash:hotpath
func (w *worker[V]) publishNext(updated *members) {
	if updated.bits == nil {
		for _, l := range updated.list {
			w.cur[l] = w.next[l]
		}
		return
	}
	words := updated.bits.Words()
	w.parfor(updated.n, func(lo, hi int) {
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			word := words[wi]
			base := wi << 6
			for word != 0 {
				l := base + bits.TrailingZeros64(word)
				word &= word - 1
				w.cur[l] = w.next[l]
			}
		}
	})
}

// ensureAccShards materializes the per-thread phase-1 accumulator shards
// 1..Threads-1 on first use, so algorithms that never run a parallel sparse
// push never allocate them.
//
//flash:amortized allocates once, on the first parallel sparse push
func (w *worker[V]) ensureAccShards() {
	for t := 1; t < len(w.acc); t++ {
		if w.acc[t].val == nil {
			w.acc[t] = accShard[V]{
				val: make([]V, w.st.SlotCount()),
				set: bitset.New(w.st.SlotCount()),
			}
		}
	}
}

// forEachMember visits the local indices in membership, choosing between a
// thread-parallel full scan (dense bitmaps) and a sequential walk (lists, and
// sparse bitmaps, avoiding the O(localCount) scan). f also receives the
// index t of the thread it runs on, for per-thread scratch such as w.ctxs[t].
//
//flash:amortized one parallel region per frontier sweep
func (w *worker[V]) forEachMember(membership *members, count int, f func(t, l int)) {
	bits := membership.bits
	if bits == nil || count*16 < bits.Cap() || w.eng.cfg.Threads == 1 {
		membership.each(func(l int) bool {
			f(0, l)
			return true
		})
		return
	}
	w.parforT(bits.Cap(), func(t, lo, hi int) {
		for l := lo; l < hi; l++ {
			if bits.Test(l) {
				f(t, l)
			}
		}
	})
}

// loadView sets w.view on the worker's first pull step, the only reader.
//
//flash:amortized builds the view once per partition (per worker under FullMirrors)
func (w *worker[V]) loadView() {
	switch {
	case w.view != nil:
	case w.eng.cfg.FullMirrors:
		w.view = &partition.PullView{Deg: partition.NewDegreeTable(w.eng.g, w.st)}
	default:
		w.view = w.part.PullView()
	}
}

// vtxAt builds the callback view of v with Val pointing at val: a master's
// own state when its local index (== slot) is known, or a working copy.
//
//flash:hotpath
func (w *worker[V]) vtxAt(v graph.VID, val *V) Vtx[V] {
	return Vtx[V]{
		ID:    v,
		Deg:   uint32(w.eng.g.OutDegree(v)),
		InDeg: uint32(w.eng.g.InDegree(v)),
		Val:   val,
	}
}

// Ctx gives EdgeSet implementations read access to current states. Each
// parfor thread of a worker has its own, so a Ctx is never used concurrently.
type Ctx[V any] struct {
	G *graph.Graph
	w *worker[V]

	// blk is the thread's out-of-core block cursor per logical direction
	// (blockedge.go); unused over an in-memory graph.
	blk [2]blockCursor

	// rowAdj/rowW are the row buffer rowOf collects a derived edge set's row
	// into, through collect (appendEdge, bound once); work is the pull
	// kernel's working copy of the target's value.
	rowAdj  []graph.VID
	rowW    []float32
	collect func(graph.VID, float32) bool
	work    V
}

// Get returns a read-only pointer to v's current state as seen by this
// worker. Valid for local masters and mirrors; with FullMirrors every vertex
// is valid.
func (c *Ctx[V]) Get(v graph.VID) *V { return &c.w.cur[c.w.st.Slot(v)] }

// Worker returns the worker id the context belongs to.
func (c *Ctx[V]) Worker() int { return c.w.id }

// StateBytes returns the resident per-worker property-state footprint, summed
// over all workers: the slot-indexed current-state arrays, next/pending
// master buffers, every materialized accumulator shard, the per-step bitsets
// and touched lists, the slot tables' auxiliary rank/gid structures, and
// under FullMirrors each worker's own degree table.
// Transient frame buffers (pool-backed) and the shared topology are
// excluded. The bench suite's state_bytes_per_vertex metric and its
// regression guard are built on this accounting, which is deterministic for
// a fixed graph and configuration — unlike a live-heap sample, it cannot
// flake with GC timing.
func (e *Engine[V]) StateBytes() uint64 {
	vsz := uint64(unsafe.Sizeof(*new(V)))
	bitsetBytes := func(b *bitset.Bitset) uint64 { return uint64(len(b.Words())) * 8 }
	var total uint64
	for _, w := range e.workers {
		if w.cur == nil {
			continue // cluster shell: no local state
		}
		total += uint64(cap(w.cur)) * vsz
		total += uint64(cap(w.next)) * vsz
		total += uint64(cap(w.pendVal)) * vsz
		for t := range w.acc {
			if w.acc[t].val != nil {
				total += uint64(cap(w.acc[t].val))*vsz + bitsetBytes(w.acc[t].set)
			}
		}
		total += bitsetBytes(w.pendSet) + bitsetBytes(w.frontier)
		total += uint64(cap(w.accList))*8 + uint64(cap(w.pendList))*4
		total += w.st.AuxBytes()
		if e.cfg.FullMirrors && w.view != nil {
			total += uint64(cap(w.view.Deg)) * 8 // the worker's own; otherwise the partition's
		}
	}
	return total
}
