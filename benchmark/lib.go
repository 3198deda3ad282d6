package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/metrics"
)

// libSpec describes one of the four library workloads. They share one
// implementation on purpose: ooc-rmat is dense-rmat with only the graph block
// layer swapped in, ckpt-grid is sparse-grid with only checkpointing switched
// on, so the difference between the members of a pair is the price of that
// one thing.
type libSpec struct {
	name      string
	grid      bool // GenGrid road-network regime; otherwise GenRMAT social regime
	ooc       bool // FLASHBLK file + block-graph handle instead of the CSR
	pagerank  bool // op = BFS + PageRank(2 iters); otherwise BFS only
	ckptEvery int
}

var libSpecs = map[string]libSpec{
	wDense:  {name: wDense, pagerank: true},
	wOOC:    {name: wOOC, ooc: true, pagerank: true},
	wSparse: {name: wSparse, grid: true},
	wCkpt:   {name: wCkpt, grid: true, ckptEvery: 50},
}

const pagerankIters = 2

// genLibGraph builds the workload's in-memory graph from the seed.
func genLibGraph(spec libSpec, sz sizing, seed int64) *graph.Graph {
	if spec.grid {
		return graph.GenGrid(sz.gridRows, sz.gridRows, 0, seed)
	}
	return graph.GenRMAT(sz.rmatN, sz.rmatN*sz.rmatDeg, seed)
}

// libRoots derives the root pool from the seed alone (the out-of-core
// workload never holds the CSR, so roots may not depend on it).
//
// RMAT roots are uniform vertex ids; the generator chains a permutation
// through all vertices, so every root reaches the whole graph. Grid roots are
// drawn from the ring of cells whose eccentricity is 3/4 of the diameter:
// every op then runs the same number of supersteps whatever the seed, which
// is what keeps op time comparable across seeds.
func libRoots(spec libSpec, sz sizing, seed int64) []graph.VID {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	roots := make([]graph.VID, 0, sz.pool)
	for len(roots) < sz.pool {
		var v graph.VID
		if spec.grid {
			r := sz.gridRows
			// ecc(row, col) = max(row, r-1-row) + max(col, r-1-col) = 3r/2,
			// with both terms in (r/2, r-1].
			a := r/2 + 1 + rng.Intn(r/2-1)
			b := 3*r/2 - a
			row, col := a, b
			if rng.Intn(2) == 0 {
				row = r - 1 - a
			}
			if rng.Intn(2) == 0 {
				col = r - 1 - b
			}
			v = graph.VID(row*r + col)
		} else {
			v = graph.VID(rng.Intn(sz.rmatN))
		}
		if !slices.Contains(roots, v) {
			roots = append(roots, v)
		}
	}
	return roots
}

// blkSidecar is what the block-file generator process reports next to the
// file: the set-up stage times it alone can see, and the CSR scan probe it
// alone can run, since the measuring process never holds the CSR.
type blkSidecar struct {
	GenMs            float64 `json:"gen_ms"`
	WriteMs          float64 `json:"write_ms"`
	CSRScanNsPerEdge float64 `json:"csr_scan_ns_per_edge"`
}

// refFile is what the reference process hands back for ooc-rmat: per root,
// the digest of the in-memory engine's result and whether that result matched
// the serial oracles.
type refFile struct {
	Digests []uint64 `json:"digests"`
	OK      []bool   `json:"ok"`
}

// opOut is one op's raw result.
type opOut struct {
	dis  []int32
	rank []float64
}

func (o opOut) digest() uint64 {
	h := digestInt32(o.dis)
	if o.rank != nil {
		h = mix(h, digestFloat64(o.rank))
	}
	return h
}

// opRec is what the harness keeps of a finished op: enough to verify it after
// the timed phase without holding its result arrays.
type opRec struct {
	root   int
	digest uint64
	err    error
}

// setupTimes are the stages of one set-up.
type setupTimes struct {
	gen, blkWrite, blkOpen, partBuild time.Duration
	csrScanNs                         float64 // ooc only, from the sidecar
}

type libWorkload struct {
	cfg   runCfg
	spec  libSpec
	roots []graph.VID

	g    *graph.Graph // CSR, or the block graph's skeleton
	bg   *graph.BlockGraph
	h    *flash.GraphHandle
	opts []flash.Option
	st   setupTimes

	next int // op counter, the traced ops' id
	recs []opRec

	// counted-phase state (traced run only)
	col        *metrics.Collector
	stateBytes uint64
}

func newLibWorkload(cfg runCfg) *libWorkload {
	spec := libSpecs[cfg.workload]
	return &libWorkload{cfg: cfg, spec: spec, roots: libRoots(spec, cfg.sz, cfg.seed)}
}

func (w *libWorkload) blkPath() string { return filepath.Join(w.cfg.tmp, "graph.blk") }

// runChild runs this binary in one of its helper modes and waits for it.
func (w *libWorkload) runChild(mode, out string) error {
	cmd := exec.Command(w.cfg.exe,
		"-child", mode, "-workload", w.cfg.workload,
		"-seed", fmt.Sprint(w.cfg.seed), "-scale", w.cfg.scale,
		"-trace", fmt.Sprint(w.cfg.traceFlag()), "-out", out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s helper process: %w", mode, err)
	}
	return nil
}

// setup brings the workload to the state a flashd user starts from: graph
// loaded, handle built, partition for two workers prewarmed.
func (w *libWorkload) setup(tr *tracer) error {
	var st setupTimes
	if w.spec.ooc {
		// Generate-and-write runs in a short-lived process of its own, so
		// this process only ever opens the file.
		start := time.Now()
		if err := w.runChild("mkblk", w.blkPath()); err != nil {
			return err
		}
		var sc blkSidecar
		if err := readJSON(w.blkPath()+".json", &sc); err != nil {
			return err
		}
		st.gen = time.Duration(sc.GenMs * float64(time.Millisecond))
		st.blkWrite = time.Duration(sc.WriteMs * float64(time.Millisecond))
		st.csrScanNs = sc.CSRScanNsPerEdge
		if tr != nil {
			tr.add("graph.gen", noSpan, noSpan, start, start.Add(st.gen))
			tr.add("graph.blk_write", noSpan, noSpan, start.Add(st.gen), start.Add(st.gen+st.blkWrite))
		}

		start = time.Now()
		bg, err := graph.OpenBlockFile(w.blkPath())
		if err != nil {
			return err
		}
		st.blkOpen = time.Since(start)
		if tr != nil {
			tr.add("graph.blk_open", noSpan, noSpan, start, start.Add(st.blkOpen))
		}
		w.bg = bg
		w.h = flash.NewBlockGraphHandle(bg)
	} else {
		start := time.Now()
		g := genLibGraph(w.spec, w.cfg.sz, w.cfg.seed)
		st.gen = time.Since(start)
		if tr != nil {
			tr.add("graph.gen", noSpan, noSpan, start, start.Add(st.gen))
		}
		w.h = flash.NewGraphHandle(g)
	}
	w.g = w.h.Graph()

	start := time.Now()
	w.h.Prewarm(engineWorkers)
	st.partBuild = time.Since(start)
	if tr != nil {
		tr.add("partition.build", noSpan, noSpan, start, start.Add(st.partBuild))
	}

	w.opts = []flash.Option{
		flash.WithGraphHandle(w.h),
		flash.WithWorkers(engineWorkers),
		flash.WithThreads(engineThreads),
	}
	if w.spec.ooc {
		// Working set five times the cache.
		w.opts = append(w.opts, flash.WithBlockCacheBytes(int64(w.bg.EdgeBytes()/5)))
	}
	if w.spec.ckptEvery > 0 {
		w.opts = append(w.opts, flash.WithCheckpointEvery(w.spec.ckptEvery))
	}
	w.st = st
	return nil
}

func (w *libWorkload) teardown() error {
	var err error
	if w.bg != nil {
		err = w.bg.Close()
	}
	w.g, w.bg, w.h, w.opts = nil, nil, nil, nil
	return err
}

// runOp is the op as a user runs it: the algo package's entry points over
// the prewarmed handle.
func (w *libWorkload) runOp(root graph.VID, opts []flash.Option) (opOut, error) {
	dis, err := algo.BFS(w.g, root, opts...)
	if err != nil {
		return opOut{}, err
	}
	out := opOut{dis: dis}
	if w.spec.pagerank {
		if out.rank, err = algo.PageRank(w.g, pagerankIters, 0, opts...); err != nil {
			return opOut{}, err
		}
	}
	return out, nil
}

// runTracedOp is the same op through the benchmark-local drivers, every call
// into the core layer bracketed by a span under the op's root span.
func (w *libWorkload) runTracedOp(tr *tracer, op int, root graph.VID) (opOut, error) {
	id := tr.begin("flash.op", noSpan, op)
	defer tr.end(id)
	dis, err := tracedBFS(tr, id, op, w.g, root, w.opts)
	if err != nil {
		return opOut{}, err
	}
	out := opOut{dis: dis}
	if w.spec.pagerank {
		if out.rank, err = tracedPageRank(tr, id, op, w.g, pagerankIters, 0, w.opts); err != nil {
			return opOut{}, err
		}
	}
	return out, nil
}

// beginCounted makes the following untraced rounds report through the public
// counter hooks; it changes nothing the engine does.
func (w *libWorkload) beginCounted() {
	w.col = metrics.New()
}

func (w *libWorkload) countedOpts() []flash.Option {
	return append(slices.Clone(w.opts),
		flash.WithCollector(w.col),
		flash.WithRunStats(func(s flash.RunStats) {
			w.stateBytes = max(w.stateBytes, s.StateBytes)
		}))
}

func (w *libWorkload) clients() int { return 1 }

// round runs the op once per root of the pool, back to back (closed loop, one
// client). Latency, wall and CPU cover the ops alone; digesting a result
// happens between ops and is charged to none.
func (w *libWorkload) round(mode roundMode) (roundRun, error) {
	opts := w.opts
	if mode.counted {
		opts = w.countedOpts()
	}
	n := len(w.roots)
	rr := roundRun{lats: make([]time.Duration, n)}
	for ri, root := range w.roots {
		op := w.next
		w.next++
		var out opOut
		var err error
		cpu0, start := cpuTime(), time.Now()
		if mode.tr != nil {
			out, err = w.runTracedOp(mode.tr, op, root)
		} else {
			out, err = w.runOp(root, opts)
		}
		rr.lats[ri] = time.Since(start)
		rr.wall += rr.lats[ri]
		rr.cpu += cpuTime() - cpu0
		w.recs = append(w.recs, opRec{root: ri, digest: out.digest(), err: err})
	}
	return rr, nil
}

// referencePass runs every root of the pool once more through the in-memory
// engine, checks the full result against the serial oracles, and returns the
// digests every recorded op of that root must match. Results are
// byte-identical from run to run at two workers, so a digest stands for the
// verified arrays.
func referencePass(spec libSpec, g *graph.Graph, roots []graph.VID, opts []flash.Option) (refFile, error) {
	ref := refFile{Digests: make([]uint64, len(roots)), OK: make([]bool, len(roots))}
	var wantRank []float64
	if spec.pagerank {
		wantRank = oraclePageRank(g, pagerankIters)
	}
	for i, root := range roots {
		dis, err := algo.BFS(g, root, opts...)
		if err != nil {
			return refFile{}, err
		}
		out := opOut{dis: dis}
		ok := slices.Equal(dis, oracleBFS(g, root))
		if spec.pagerank {
			if out.rank, err = algo.PageRank(g, pagerankIters, 0, opts...); err != nil {
				return refFile{}, err
			}
			ok = ok && closeFloat64(out.rank, wantRank)
		}
		ref.Digests[i], ref.OK[i] = out.digest(), ok
	}
	return ref, nil
}

// verify checks every op recorded so far. It runs after the timed phase, so
// neither set-up time nor op time pays for it.
func (w *libWorkload) verify() (attempted, failed int, err error) {
	var ref refFile
	if w.spec.ooc {
		// The block engine's results must be byte-identical to the in-memory
		// engine's. The reference comes from a process of its own and arrives
		// as digests in a file: this process never loads the CSR.
		path := filepath.Join(w.cfg.tmp, "ref.json")
		if err := w.runChild("ref", path); err != nil {
			return 0, 0, err
		}
		if err := readJSON(path, &ref); err != nil {
			return 0, 0, err
		}
		if len(ref.Digests) != len(w.roots) || len(ref.OK) != len(w.roots) {
			return 0, 0, fmt.Errorf("reference file covers %d roots, want %d", len(ref.Digests), len(w.roots))
		}
	} else {
		if ref, err = referencePass(w.spec, w.g, w.roots, w.opts); err != nil {
			return 0, 0, err
		}
	}
	for _, r := range w.recs {
		attempted++
		if r.err != nil || !ref.OK[r.root] || r.digest != ref.Digests[r.root] {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "flashmark: %s: op on root #%d failed verification (err=%v oracle_ok=%v digest %#x want %#x)\n",
					w.spec.name, r.root, r.err, ref.OK[r.root], r.digest, ref.Digests[r.root])
			}
			failed++
		}
	}
	return attempted, failed, nil
}

// ---- helper-process modes ----

// childMkblk generates the workload's graph and writes it as a FLASHBLK file,
// with the sidecar beside it.
func childMkblk(cfg runCfg, out string) error {
	spec := libSpecs[cfg.workload]
	start := time.Now()
	g := genLibGraph(spec, cfg.sz, cfg.seed)
	sc := blkSidecar{GenMs: ms(time.Since(start))}
	start = time.Now()
	if err := graph.WriteBlockFile(g, out, graph.DefaultBlockSize); err != nil {
		return err
	}
	sc.WriteMs = ms(time.Since(start))
	if cfg.trace {
		sc.CSRScanNsPerEdge = probeCSRScan(g)
	}
	return writeJSON(out+".json", sc)
}

// childRef produces the in-memory reference for the out-of-core workload.
func childRef(cfg runCfg, out string) error {
	spec := libSpecs[cfg.workload]
	g := genLibGraph(spec, cfg.sz, cfg.seed)
	h := flash.NewGraphHandle(g)
	opts := []flash.Option{
		flash.WithGraphHandle(h),
		flash.WithWorkers(engineWorkers),
		flash.WithThreads(engineThreads),
	}
	ref, err := referencePass(spec, g, libRoots(spec, cfg.sz, cfg.seed), opts)
	if err != nil {
		return err
	}
	return writeJSON(out, ref)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
