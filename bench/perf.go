package bench

// The fixed perf suite behind BENCH_flash.json: a deterministic grid of
// end-to-end algorithm runs (BFS / CC / PageRank / SSSP x mem / tcp x
// workers {1,2,4} x threads {1,2,4}) plus the sparse-EdgeMap microbenchmark
// the regression guard in regress_test.go tracks. Every cell reports median
// wall time, heap allocation deltas, and the transport's traffic counters,
// so a perf regression shows up as a diff against the committed baseline
// rather than a vague slowdown.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/metrics"
)

// perfProps mirrors the root hotpath benchmark's property type so the micro
// numbers here and `go test -bench=EdgeMapSparse` measure the same kernel.
type perfProps struct{ Dis int32 }

// MicroStat is one microbenchmark entry in BENCH_flash.json.
type MicroStat struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// PerfCell is one end-to-end suite entry in BENCH_flash.json.
type PerfCell struct {
	Name        string `json:"name"`
	Algo        string `json:"algo"`
	Transport   string `json:"transport"`
	Workers     int    `json:"workers"`
	Threads     int    `json:"threads"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Messages    uint64 `json:"messages"`
	BytesSent   uint64 `json:"bytes_sent"`
	Supersteps  int    `json:"supersteps"`
}

// MemStat is one state-memory entry in BENCH_flash.json: the engine's
// resident per-worker property state (summed over workers) after a full BFS.
type MemStat struct {
	StateBytes          uint64  `json:"state_bytes"`
	StateBytesPerVertex float64 `json:"state_bytes_per_vertex"`
}

// RecoveryStat is one worker-loss entry in BENCH_flash.json: a BFS run on
// the fixed graph during which one worker is hard-killed mid-run, with
// checkpoints going to a durable file store. It reports the recovery cost
// (time spent inside rollback/restart/replay), the checkpoint write volume,
// and the faulted wall time next to the fault-free one.
type RecoveryStat struct {
	FaultFreeNs     int64  `json:"fault_free_ns"`
	FaultedNs       int64  `json:"faulted_ns"`
	TimeToRecoverNs int64  `json:"time_to_recover_ns"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	Checkpoints     uint64 `json:"checkpoints"`
	Restarts        uint64 `json:"restarts"`
	Recoveries      uint64 `json:"recoveries"`
}

// ResizeStat is one elastic-membership entry in BENCH_flash.json: a BFS run
// on the fixed graph during which the engine grows 2→8 workers and then
// shrinks to 4 at scheduled supersteps. It reports the number of completed
// membership changes, the master-state volume shipped between partitions,
// and the wall time spent paused at resize barriers, next to the elastic
// run's total and a fixed-4-worker fault-free baseline.
type ResizeStat struct {
	FixedNs       int64  `json:"fixed_ns"`
	ElasticNs     int64  `json:"elastic_ns"`
	Resizes       uint64 `json:"resizes"`
	MigratedBytes uint64 `json:"migrated_bytes"`
	ResizeTimeNs  int64  `json:"resize_time_ns"`
}

// PerfSuite is the full BENCH_flash.json document.
type PerfSuite struct {
	Schema      string                  `json:"schema"`
	Graph       string                  `json:"graph"`
	Vertices    int                     `json:"vertices"`
	Edges       int                     `json:"edges"`
	GraphXL     string                  `json:"graph_xl,omitempty"`
	VerticesXL  int                     `json:"vertices_xl,omitempty"`
	EdgesXL     int                     `json:"edges_xl,omitempty"`
	GraphXXL    string                  `json:"graph_xxl,omitempty"`
	VerticesXXL int                     `json:"vertices_xxl,omitempty"`
	EdgesXXL    int                     `json:"edges_xxl,omitempty"`
	GoMaxProcs  int                     `json:"go_maxprocs"`
	Reps        int                     `json:"reps"`
	Micro       map[string]MicroStat    `json:"micro"`
	Mem         map[string]MemStat      `json:"mem,omitempty"`
	Recovery    map[string]RecoveryStat `json:"recovery,omitempty"`
	Resize      map[string]ResizeStat   `json:"resize,omitempty"`
	Serve       map[string]ServeStat    `json:"serve,omitempty"`
	Ooc         map[string]OOCStat      `json:"ooc,omitempty"`
	Cluster     map[string]ClusterStat  `json:"cluster,omitempty"`
	Suite       []PerfCell              `json:"suite"`
}

// MicroSparse benchmarks one sparse (push-mode) EdgeMap superstep on the OR
// social analog with a seeded mid-size frontier — the same setup as the root
// BenchmarkEdgeMapSparse, callable from the harness and the regress guard.
func MicroSparse(workers, threads int) testing.BenchmarkResult {
	g := graph.GenRMAT(4096, 4096*12, 101)
	return testing.Benchmark(func(b *testing.B) {
		e, err := flash.NewEngine[perfProps](g,
			flash.WithWorkers(workers), flash.WithThreads(threads))
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		e.VertexMap(e.All(), nil, func(v flash.Vertex[perfProps]) perfProps {
			return perfProps{Dis: int32(v.ID) % 64}
		})
		ids := make([]flash.VID, 0, g.NumVertices()/16)
		for v := 0; v < g.NumVertices(); v += 16 {
			ids = append(ids, flash.VID(v))
		}
		u := e.FromIDs(ids...)
		update := func(s, d flash.Vertex[perfProps]) perfProps {
			if nd := s.Val.Dis + 1; nd < d.Val.Dis {
				return perfProps{Dis: nd}
			}
			return *d.Val
		}
		reduce := func(t, cur perfProps) perfProps {
			if t.Dis < cur.Dis {
				return t
			}
			return cur
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.EdgeMapSparse(u, e.E(), nil, update, nil, reduce)
		}
	})
}

// MeasureStateMemory builds an engine over the fixed RMAT graph, runs a full
// BFS so any lazily-materialized state (parallel-push accumulator shards) is
// in place, and reports the resident property-state footprint.
// Engine.StateBytes is deterministic for a fixed graph and configuration, so
// the regress guard can hold the per-vertex value to a hard threshold.
func MeasureStateMemory(workers, threads int) (MemStat, error) {
	g := graph.GenRMAT(4096, 4096*12, 101)
	e, err := flash.NewEngine[perfProps](g,
		flash.WithWorkers(workers), flash.WithThreads(threads))
	if err != nil {
		return MemStat{}, err
	}
	defer e.Close()
	const inf = int32(1) << 30
	e.VertexMap(e.All(), nil, func(v flash.Vertex[perfProps]) perfProps {
		if v.ID == 0 {
			return perfProps{}
		}
		return perfProps{Dis: inf}
	})
	u := e.FromIDs(0)
	for u.Size() != 0 {
		u = e.EdgeMap(u, e.E(),
			func(s, d flash.Vertex[perfProps]) bool { return d.Val.Dis > s.Val.Dis+1 },
			func(s, d flash.Vertex[perfProps]) perfProps { return perfProps{Dis: s.Val.Dis + 1} },
			func(d flash.Vertex[perfProps]) bool { return d.Val.Dis == inf },
			func(t, cur perfProps) perfProps {
				if t.Dis < cur.Dis {
					return t
				}
				return cur
			})
	}
	n := g.NumVertices()
	state := e.StateBytes()
	return MemStat{
		StateBytes:          state,
		StateBytesPerVertex: float64(state) / float64(n),
	}, nil
}

// MeasureRecovery runs the worker-loss scenario on the fixed graph: a
// fault-free BFS for the baseline wall time, then the same BFS with worker 3
// hard-killed at round 3, checkpointing every 2 supersteps to a file store in
// a throwaway directory. The run must finish (the kill is survivable), and
// the collector's recovery counters populate the stat.
func MeasureRecovery(transport string) (RecoveryStat, error) {
	g := graph.GenRMAT(4096, 4096*12, 101)
	base := []flash.Option{flash.WithWorkers(4)}
	if transport == "tcp" {
		base = append(base, flash.WithTCP())
	}
	start := time.Now()
	if _, err := algo.BFS(g, 0, base...); err != nil {
		return RecoveryStat{}, err
	}
	faultFree := time.Since(start)
	dir, err := os.MkdirTemp("", "flash-recovery-")
	if err != nil {
		return RecoveryStat{}, err
	}
	defer os.RemoveAll(dir)
	store, err := flash.NewFileCheckpointStore(filepath.Join(dir, "ckpt.flash"))
	if err != nil {
		return RecoveryStat{}, err
	}
	col := metrics.New()
	opts := append(append([]flash.Option{}, base...),
		flash.WithCollector(col),
		flash.WithCheckpointEvery(2),
		flash.WithCheckpointStore(store),
		flash.WithMaxRecoveries(6),
		flash.WithDrainTimeout(150*time.Millisecond),
		flash.WithFaultPlan(flash.FaultPlan{
			Kills: []flash.WorkerKill{{Worker: 3, Round: 3}},
		}),
	)
	start = time.Now()
	if _, err := algo.BFS(g, 0, opts...); err != nil {
		return RecoveryStat{}, fmt.Errorf("faulted run: %w", err)
	}
	faulted := time.Since(start)
	return RecoveryStat{
		FaultFreeNs:     faultFree.Nanoseconds(),
		FaultedNs:       faulted.Nanoseconds(),
		TimeToRecoverNs: col.RecoveryTime.Nanoseconds(),
		CheckpointBytes: col.CheckpointBytes,
		Checkpoints:     col.Checkpoints,
		Restarts:        col.Restarts,
		Recoveries:      col.Recoveries,
	}, nil
}

// MeasureResize runs the elastic-membership scenario on the fixed graph: a
// fault-free fixed-4-worker BFS for the baseline wall time, then the same
// BFS started on 2 workers with a schedule policy that grows the engine to 8
// workers after superstep 2 and shrinks it to 4 after superstep 4. The
// collector's elasticity counters populate the stat, so the migration cost
// of a membership change is tracked as a first-class benchmark number.
func MeasureResize(transport string) (ResizeStat, error) {
	g := graph.GenRMAT(4096, 4096*12, 101)
	fixedOpts := []flash.Option{flash.WithWorkers(4)}
	if transport == "tcp" {
		fixedOpts = append(fixedOpts, flash.WithTCP())
	}
	start := time.Now()
	if _, err := algo.BFS(g, 0, fixedOpts...); err != nil {
		return ResizeStat{}, err
	}
	fixed := time.Since(start)
	col := metrics.New()
	opts := []flash.Option{
		flash.WithWorkers(2),
		flash.WithCollector(col),
		flash.WithResizePolicy(flash.SchedulePolicy(map[int]int{2: 8, 4: 4})),
	}
	if transport == "tcp" {
		opts = append(opts, flash.WithTCP())
	}
	start = time.Now()
	if _, err := algo.BFS(g, 0, opts...); err != nil {
		return ResizeStat{}, fmt.Errorf("elastic run: %w", err)
	}
	elastic := time.Since(start)
	return ResizeStat{
		FixedNs:       fixed.Nanoseconds(),
		ElasticNs:     elastic.Nanoseconds(),
		Resizes:       col.Resizes,
		MigratedBytes: col.MigratedBytes,
		ResizeTimeNs:  col.ResizeTime.Nanoseconds(),
	}, nil
}

// perfAlgo is one algorithm of the fixed grid. run executes a full job with
// the supplied engine options and must do all work before returning.
type perfAlgo struct {
	name string
	run  func(opts []flash.Option) error
}

func fixedAlgos(g, weighted *graph.Graph) []perfAlgo {
	return []perfAlgo{
		{"bfs", func(o []flash.Option) error { _, err := algo.BFS(g, 0, o...); return err }},
		{"cc", func(o []flash.Option) error { _, err := algo.CC(g, o...); return err }},
		{"pagerank", func(o []flash.Option) error { _, err := algo.PageRank(g, 10, 0, o...); return err }},
		{"sssp", func(o []flash.Option) error { _, err := algo.SSSP(weighted, 0, o...); return err }},
	}
}

// FixedSuite runs the whole grid with one warmup plus reps timed repetitions
// per cell and returns the populated document.
func FixedSuite(reps int) (*PerfSuite, error) {
	// Median-of-reps needs at least three samples to be a median at all; a
	// single-rep "median" is whatever the scheduler did that run, and the
	// committed baseline would inherit the noise.
	if reps < 3 {
		reps = 3
	}
	g := graph.GenRMAT(4096, 4096*12, 101)
	weighted := graph.WithRandomWeights(g, 9)
	s := &PerfSuite{
		Schema:     "flash-bench/v2",
		Graph:      "rmat-4096x12-seed101 (OR analog)",
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		GraphXL:    "rmat-16384x12-seed101 (XL tier)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Micro:      map[string]MicroStat{},
		Mem:        map[string]MemStat{},
		Recovery:   map[string]RecoveryStat{},
		Resize:     map[string]ResizeStat{},
		Serve:      map[string]ServeStat{},
		Cluster:    map[string]ClusterStat{},
	}
	for _, c := range []struct{ w, t int }{{1, 1}, {4, 1}, {4, 4}} {
		r := MicroSparse(c.w, c.t)
		s.Micro[fmt.Sprintf("edgemap_sparse_w%dt%d", c.w, c.t)] = MicroStat{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		m, err := MeasureStateMemory(c.w, c.t)
		if err != nil {
			return nil, fmt.Errorf("state memory w%dt%d: %w", c.w, c.t, err)
		}
		s.Mem[fmt.Sprintf("state_w%dt%d", c.w, c.t)] = m
	}
	for _, transport := range []string{"mem", "tcp"} {
		r, err := MeasureRecovery(transport)
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", transport, err)
		}
		s.Recovery[fmt.Sprintf("bfs_kill_%s_w4", transport)] = r
		rz, err := MeasureResize(transport)
		if err != nil {
			return nil, fmt.Errorf("resize %s: %w", transport, err)
		}
		s.Resize[fmt.Sprintf("bfs_elastic_%s_w2to8to4", transport)] = rz
	}
	// Multi-process cluster mode: the same BFS as one process of w workers
	// vs w separate worker processes, so the isolation overhead (spawn,
	// handshake, cross-address-space control rounds) is a committed number.
	for _, w := range []int{2, 4} {
		cs, err := MeasureCluster(w)
		if err != nil {
			return nil, fmt.Errorf("cluster w%d: %w", w, err)
		}
		s.Cluster[fmt.Sprintf("bfs_cross_w%d", w)] = cs
	}
	// Service throughput: the fixed flashd job mix at serial and concurrent
	// scheduling, so the serving layer's jobs/sec has a committed baseline.
	for _, conc := range []int{1, 4} {
		sv, err := MeasureServe(conc)
		if err != nil {
			return nil, fmt.Errorf("serve c%d: %w", conc, err)
		}
		s.Serve[fmt.Sprintf("mixed_jobs_c%d", conc)] = sv
	}
	for _, a := range fixedAlgos(g, weighted) {
		for _, transport := range []string{"mem", "tcp"} {
			for _, w := range []int{1, 2, 4} {
				for _, th := range []int{1, 2, 4} {
					cell, err := runPerfCell(a, transport, w, th, reps)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", cell.Name, err)
					}
					s.Suite = append(s.Suite, cell)
				}
			}
		}
	}
	// XL tier: ~4× the vertices of the main grid, runnable in the headroom
	// the compact state layout freed. BFS and CC, both transports, w4t4.
	xl := graph.GenRMAT(16384, 16384*12, 101)
	s.VerticesXL = xl.NumVertices()
	s.EdgesXL = xl.NumEdges()
	xlAlgos := []perfAlgo{
		{"bfs-xl", func(o []flash.Option) error { _, err := algo.BFS(xl, 0, o...); return err }},
		{"cc-xl", func(o []flash.Option) error { _, err := algo.CC(xl, o...); return err }},
	}
	for _, a := range xlAlgos {
		for _, transport := range []string{"mem", "tcp"} {
			cell, err := runPerfCell(a, transport, 4, 4, reps)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cell.Name, err)
			}
			s.Suite = append(s.Suite, cell)
		}
	}
	// XXL tier: an order of magnitude more edges than XL, served from a
	// FLASHBLK file through the bounded block cache instead of resident CSR.
	xxl := GenXXL()
	s.GraphXXL = "rmat-65536x36-seed101 (XXL tier, out-of-core)"
	s.VerticesXXL = xxl.NumVertices()
	s.EdgesXXL = xxl.NumEdges()
	ooc, err := MeasureOOC(xxl, 0, reps)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	s.Ooc = ooc
	return s, nil
}

// runPerfCell times one (algo, transport, workers, threads) configuration:
// one discarded warmup run, then reps measured runs. Wall time is the median
// rep; allocation deltas come from runtime.MemStats around the median run's
// position; traffic counters come from the last rep's collector.
func runPerfCell(a perfAlgo, transport string, workers, threads, reps int) (PerfCell, error) {
	cell := PerfCell{
		Name:      fmt.Sprintf("%s/%s/w%dt%d", a.name, transport, workers, threads),
		Algo:      a.name,
		Transport: transport,
		Workers:   workers,
		Threads:   threads,
	}
	baseOpts := []flash.Option{flash.WithWorkers(workers), flash.WithThreads(threads)}
	if transport == "tcp" {
		baseOpts = append(baseOpts, flash.WithTCP())
	}
	if err := a.run(baseOpts); err != nil { // warmup
		return cell, err
	}
	ns := make([]int64, 0, reps)
	allocs := make([]int64, 0, reps)
	bytes := make([]int64, 0, reps)
	var col *metrics.Collector
	for i := 0; i < reps; i++ {
		col = metrics.New()
		opts := append(append([]flash.Option{}, baseOpts...), flash.WithCollector(col))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := a.run(opts); err != nil {
			return cell, err
		}
		ns = append(ns, time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		allocs = append(allocs, int64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	cell.NsPerOp = median(ns)
	cell.AllocsPerOp = median(allocs)
	cell.BytesPerOp = median(bytes)
	cell.Messages = col.Messages
	cell.BytesSent = col.Bytes
	cell.Supersteps = col.Supersteps
	return cell, nil
}

func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// WritePerfJSON writes the suite as indented JSON.
func WritePerfJSON(path string, s *PerfSuite) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerfJSON loads a committed baseline. A missing file is reported via
// os.IsNotExist so callers (the regress guard) can skip.
func ReadPerfJSON(path string) (*PerfSuite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s PerfSuite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// PrintPerf renders the suite for humans.
func PrintPerf(w io.Writer, s *PerfSuite) {
	fmt.Fprintf(w, "graph %s: %d vertices, %d edges (GOMAXPROCS=%d, reps=%d)\n",
		s.Graph, s.Vertices, s.Edges, s.GoMaxProcs, s.Reps)
	keys := make([]string, 0, len(s.Micro))
	for k := range s.Micro {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := s.Micro[k]
		fmt.Fprintf(w, "%-28s %12d ns/op %10d B/op %8d allocs/op\n",
			k, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	memKeys := make([]string, 0, len(s.Mem))
	for k := range s.Mem {
		memKeys = append(memKeys, k)
	}
	sort.Strings(memKeys)
	for _, k := range memKeys {
		m := s.Mem[k]
		fmt.Fprintf(w, "%-28s %12d B state %8.2f B/vertex\n",
			k, m.StateBytes, m.StateBytesPerVertex)
	}
	recKeys := make([]string, 0, len(s.Recovery))
	for k := range s.Recovery {
		recKeys = append(recKeys, k)
	}
	sort.Strings(recKeys)
	for _, k := range recKeys {
		r := s.Recovery[k]
		fmt.Fprintf(w, "%-28s recover %10.2fms (run %7.1fms vs %7.1fms fault-free) %8d ckpt B %d restarts\n",
			k, float64(r.TimeToRecoverNs)/1e6, float64(r.FaultedNs)/1e6,
			float64(r.FaultFreeNs)/1e6, r.CheckpointBytes, r.Restarts)
	}
	rzKeys := make([]string, 0, len(s.Resize))
	for k := range s.Resize {
		rzKeys = append(rzKeys, k)
	}
	sort.Strings(rzKeys)
	for _, k := range rzKeys {
		r := s.Resize[k]
		fmt.Fprintf(w, "%-28s %d resizes %10.2fms paused %10d B migrated (run %7.1fms vs %7.1fms fixed)\n",
			k, r.Resizes, float64(r.ResizeTimeNs)/1e6, r.MigratedBytes,
			float64(r.ElasticNs)/1e6, float64(r.FixedNs)/1e6)
	}
	svKeys := make([]string, 0, len(s.Serve))
	for k := range s.Serve {
		svKeys = append(svKeys, k)
	}
	sort.Strings(svKeys)
	for _, k := range svKeys {
		sv := s.Serve[k]
		fmt.Fprintf(w, "%-28s %3d jobs @ c%-2d %10.2f jobs/sec (batch %7.1fms, %d graph B + %d shared B once, procs=%d)\n",
			k, sv.Jobs, sv.Concurrency, sv.JobsPerSec,
			float64(sv.ElapsedNs)/1e6, sv.GraphBytes, sv.SharedBytes, sv.GoMaxProcs)
	}
	oocKeys := make([]string, 0, len(s.Ooc))
	for k := range s.Ooc {
		oocKeys = append(oocKeys, k)
	}
	sort.Strings(oocKeys)
	for _, k := range oocKeys {
		o := s.Ooc[k]
		fmt.Fprintf(w, "%-28s %12d ns/op ooc vs %12d inmem  hit %5.1f%% %6d evicts  %8d B/dense-step %8d B/sparse-step  resident %d B vs %d B CSR\n",
			k, o.NsPerOp, o.InMemNsPerOp, o.CacheHitRate*100, o.Evictions,
			o.BytesPerDenseStep, o.BytesPerSparseStep, o.ResidentBytes, o.InMemBytes)
	}
	clKeys := make([]string, 0, len(s.Cluster))
	for k := range s.Cluster {
		clKeys = append(clKeys, k)
	}
	sort.Strings(clKeys)
	for _, k := range clKeys {
		cl := s.Cluster[k]
		fmt.Fprintf(w, "%-28s cross-process %9.1fms vs %9.1fms in-process (w%d, %.2fx, %d restarts)\n",
			k, float64(cl.CrossNs)/1e6, float64(cl.InProcNs)/1e6,
			cl.Workers, float64(cl.CrossNs)/float64(cl.InProcNs), cl.Restarts)
	}
	for _, c := range s.Suite {
		fmt.Fprintf(w, "%-24s %12d ns/op %8d allocs/op %10d B sent %8d msgs %5d steps\n",
			c.Name, c.NsPerOp, c.AllocsPerOp, c.BytesSent, c.Messages, c.Supersteps)
	}
}
