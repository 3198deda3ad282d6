package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// runCfg is one workload process's configuration.
type runCfg struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	sz       sizing
	tmp      string // the process's one temp dir, removed on exit
	spans    string // where a traced run writes its spans ("" = nowhere)
	exe      string // this binary, for the helper processes
}

func (c runCfg) traceFlag() int {
	if c.trace {
		return 1
	}
	return 0
}

// roundMode selects how a round's ops are issued. The zero value is the
// end-to-end mode: public entry points, no counters, no spans.
type roundMode struct {
	counted bool    // public counter hooks attached (WithCollector / WithRunStats)
	tr      *tracer // ops go through the span-bracketed benchmark-local drivers
}

// roundRun is what one round - one pass over the root pool - reports.
type roundRun struct {
	lats []time.Duration // per op; op i used root i of the pool
	wall time.Duration   // the round as its clients saw it
	cpu  time.Duration   // process CPU over the same interval
}

// layerSet collects per-layer values by name; a metric a workload does not
// exercise stays absent and is reported as 0.
type layerSet map[string]float64

// layerCtx is what the generic traced flow hands a workload for its per-layer
// metrics.
type layerCtx struct {
	tr         *tracer
	tracedFrom int // index of the traced round's first span
	countedOps int
	tracedOps  int
	report     io.Writer
}

// workload is what the two measurement flows drive.
type workload interface {
	setup(tr *tracer) error
	teardown() error
	// clients is how many closed-loop clients issue a round's ops.
	clients() int
	round(mode roundMode) (roundRun, error)
	// verify checks every op issued so far against the serial oracles.
	verify() (attempted, failed int, err error)
	beginCounted()
	// layers fills ls from counters, spans and probes; it returns the span
	// name expected to hold the largest self time.
	layers(ls layerSet, lc layerCtx) (dominant string, err error)
}

func newWorkload(cfg runCfg) (workload, error) {
	if _, ok := libSpecs[cfg.workload]; ok {
		return newLibWorkload(cfg), nil
	}
	if cfg.workload == wServe {
		return newServeWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// block is one of the equal parts the timed phase is cut into: whole rounds,
// so every block does the same work on the same roots. Each timing metric is
// computed per block and the median block value is reported, with the least
// and greatest beside it: interference on the shared box this harness is
// frozen for comes in bursts that outlast single ops, and a burst then has to
// cover most of the blocks before it moves a metric.
type block struct {
	lats      []float64 // ms, every op of the block
	wall, cpu time.Duration
}

func (b block) p50() float64      { return median(b.lats) }
func (b block) opsPerS() float64  { return float64(len(b.lats)) / b.wall.Seconds() }
func (b block) cpuPerOp() float64 { return ms(b.cpu) / float64(len(b.lats)) }

func runBlock(w workload, mode roundMode, rounds int) (block, error) {
	var b block
	for r := 0; r < rounds; r++ {
		rr, err := w.round(mode)
		if err != nil {
			return block{}, err
		}
		b.lats = append(b.lats, msOf(rr.lats)...)
		b.wall += rr.wall
		b.cpu += rr.cpu
	}
	return b, nil
}

// overBlocks returns the median of f over the blocks and a note giving the
// spread between them.
func overBlocks(blocks []block, f func(block) float64) (float64, string) {
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		vals[i] = f(b)
	}
	return median(vals), fmt.Sprintf("median of %d blocks of %d ops, min %.6g max %.6g",
		len(blocks), len(blocks[0].lats), slices.Min(vals), slices.Max(vals))
}

// tracedRounds is how many rounds go through the span-bracketed drivers.
const tracedRounds = 3

// measureEndToEnd is the untraced run: set-up setupReps times on fresh state,
// one warm-up round, then a fixed number of timed rounds in equal blocks.
func measureEndToEnd(cfg runCfg, w workload) (*result, error) {
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, err
			}
			// Hand the previous state's memory back, so every repetition
			// starts as fresh as the first and peak RSS is not a sum of
			// all the set-ups.
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Warm-up: partition cache, buffer pools, thread pools and the block
	// cache fill before anything is timed.
	if _, err := w.round(roundMode{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	blocks := make([]block, cfg.sz.blocks)
	for i := range blocks {
		var err error
		if blocks[i], err = runBlock(w, roundMode{}, cfg.sz.blockRounds(cfg.workload, cfg.seconds)); err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
	}
	// Read before verification: the oracles and the reference pass are the
	// harness's memory, not the program's.
	rss := peakRSSMB()

	res := newResult(cfg.workload, false)
	var err error
	if res.Attempted, res.Failed, err = w.verify(); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	res.put("setup_s", median(setups), fmt.Sprintf("median of %d set-ups, min %.6g max %.6g", setupReps, slices.Min(setups), slices.Max(setups)))
	v, note := overBlocks(blocks, block.p50)
	res.put("op_p50_ms", v, note)
	v, note = overBlocks(blocks, block.opsPerS)
	res.put("ops_per_s", v, note)
	v, note = overBlocks(blocks, block.cpuPerOp)
	res.put("cpu_ms_per_op", v, note)
	res.put("peak_rss_mb", rss, "after the timed phase, before verification")
	if err := w.teardown(); err != nil {
		return nil, err
	}
	return res, res.check()
}

// measureLayers is the traced run: one set-up, a warm-up round, the same
// fixed rounds again untraced but with the public counter hooks attached,
// then tracedRounds rounds through the span-bracketed drivers, then the layer
// probes.
func measureLayers(cfg runCfg, w workload, report io.Writer) (*result, error) {
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if _, err := w.round(roundMode{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	w.beginCounted()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced, err := runBlock(w, roundMode{counted: true}, cfg.sz.blocks*cfg.sz.blockRounds(cfg.workload, cfg.seconds))
	if err != nil {
		return nil, fmt.Errorf("counted rounds: %w", err)
	}
	runtime.ReadMemStats(&m1)
	lats := untraced.lats
	counted := float64(len(lats))

	tracedFrom := tr.count()
	traced, err := runBlock(w, roundMode{tr: tr}, tracedRounds)
	if err != nil {
		return nil, fmt.Errorf("traced rounds: %w", err)
	}
	tracedTo := tr.count()

	ls := layerSet{
		"flash.allocs_per_op":    float64(m1.Mallocs-m0.Mallocs) / counted,
		"flash.alloc_kb_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / counted,
		"flash.gc_cycles_per_op": float64(m1.NumGC-m0.NumGC) / counted,
		// Tail latency is a layer metric, not an end-to-end one: on a shared
		// two-core box p90 does not repeat within a tenth.
		"flash.op_p90_ms":  percentile(lats, 90),
		"flash.op_samples": counted,
	}
	lc := layerCtx{
		tr: tr, tracedFrom: tracedFrom,
		countedOps: len(lats), tracedOps: len(traced.lats),
		report: report,
	}
	dominant, err := w.layers(ls, lc)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	spans := tr.snapshot()
	// Self times cover the traced rounds alone; spans a workload's probes add
	// afterwards are written out but not mixed into their table.
	stats := selfTimes(spans[:tracedTo], tracedFrom)
	var rootTotal, rootSelf time.Duration
	for _, s := range spans[tracedFrom:tracedTo] {
		if s.Parent == noSpan {
			rootTotal += s.dur()
		}
	}
	for _, name := range rootSpanNames {
		if st := stats[name]; st != nil {
			rootSelf += st.self
		}
	}
	if rootTotal > 0 {
		ls["trace.coverage_ratio"] = 1 - float64(rootSelf)/float64(rootTotal)
	}
	// Both medians are over whole rounds, so over the same roots.
	ls["trace.overhead_ratio"] = traced.p50() / untraced.p50()

	res := newResult(cfg.workload, true)
	if res.Attempted, res.Failed, err = w.verify(); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	ls["algo.verify_ok_ratio"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	for _, d := range perLayer {
		res.put(d.name, ls[d.name], "")
	}
	printSelfTimes(report, cfg.workload, stats, dominant)
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(report, "spans %s %d written to %s\n", cfg.workload, len(spans), cfg.spans)
	}
	if err := w.teardown(); err != nil {
		return nil, err
	}
	return res, res.check()
}

// rootSpanNames are the per-op root spans; their self time is what no layer
// span covers.
var rootSpanNames = []string{"flash.op", "serve.cycle"}

// printSelfTimes prints the traced round's self time per span name, largest
// first, and whether the span the workload was built to load really leads.
func printSelfTimes(w io.Writer, workload string, stats map[string]*nameStat, dominant string) {
	var total time.Duration
	for _, st := range stats {
		total += st.self
	}
	ordered := bySelf(stats)
	for _, st := range ordered {
		fmt.Fprintf(w, "selftime %s %-18s count %6d self_ms %10.3f share %5.1f%%\n",
			workload, st.name, st.count, ms(st.self), 100*float64(st.self)/float64(total))
	}
	if len(ordered) == 0 {
		return
	}
	verdict := "ok"
	if ordered[0].name != dominant {
		verdict = "MISMATCH: re-size the workload"
	}
	fmt.Fprintf(w, "dominant %s %s (expected %s): %s\n", workload, ordered[0].name, dominant, verdict)
}

// spanMetrics derives the core layer's span metrics from a traced pass of
// `ops` ops.
func spanMetrics(ls layerSet, stats map[string]*nameStat, ops int) {
	perOp := func(name string) float64 {
		if st := stats[name]; st != nil && ops > 0 {
			return ms(st.total) / float64(ops)
		}
		return 0
	}
	med := func(names ...string) time.Duration {
		var all []float64
		for _, name := range names {
			if st := stats[name]; st != nil {
				for _, d := range st.durs {
					all = append(all, float64(d))
				}
			}
		}
		return time.Duration(median(all))
	}
	ls["core.new_engine_ms"] = ms(med("core.NewEngine"))
	ls["core.close_ms"] = ms(med("core.Close"))
	ls["core.superstep_us_p50"] = float64(med("core.VertexMap", "core.EdgeMap")) / float64(time.Microsecond)
	ls["core.edgemap_ms_per_op"] = perOp("core.EdgeMap")
	ls["core.vertexmap_ms_per_op"] = perOp("core.VertexMap")
	ls["core.gather_ms_per_op"] = perOp("core.Gather")
}
