package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"flash"
	"flash/graph"
	"flash/internal/serve"
	"flash/metrics"
)

// serve-mix drives an in-process serve.Server through its HTTP handler on a
// loopback listener, as a flashd client would: two closed-loop clients, each
// repeating the cycle bfs(root) -> cc -> pagerank(5 iters) -> sssp(root) by
// POST /v1/jobs and GET /v1/jobs/{id}?wait=, reading the whole result body.

const (
	serveClients  = 2
	servePRIters  = 5
	serveGraph    = "g"
	serveWaitSpec = "30s"
)

var jobKinds = []string{"bfs", "cc", "pagerank", "sssp"}

// jobRec is what the harness keeps of one finished job.
type jobRec struct {
	kind   int
	root   int
	digest uint64 // of the result's "values" bytes
	err    error
}

// jobOut is one job as the client saw it.
type jobOut struct {
	rec     jobRec
	lat     time.Duration // submit to last body byte
	submit  time.Duration // the POST alone
	run     time.Duration // JobResult.ElapsedNs
	queue   time.Duration // traced runs only
	bodyLen int
}

type serveWorkload struct {
	cfg   runCfg
	roots []uint64
	reqs  [][]byte // request body per (kind, root): index kind*pool+root

	srv    *serve.Server
	h      *flash.GraphHandle
	hs     *http.Server
	served chan error
	base   string
	httpc  [serveClients]*http.Client
	st     setupTimes

	next int
	recs []jobRec

	// counted-phase samples (traced run only)
	jobs        []jobOut
	met0        serve.MetricsSnapshot
	countedWall time.Duration
	// traced-round samples
	tracedJobs []jobOut
}

func newServeWorkload(cfg runCfg) *serveWorkload {
	w := &serveWorkload{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 23))
	for len(w.roots) < cfg.sz.pool {
		if v := uint64(rng.Intn(cfg.sz.serveN)); !slices.Contains(w.roots, v) {
			w.roots = append(w.roots, v)
		}
	}
	for kind := range jobKinds {
		for ri := range w.roots {
			w.reqs = append(w.reqs, w.request(kind, ri))
		}
	}
	return w
}

func (w *serveWorkload) params(kind, ri int) serve.JobParams {
	var p serve.JobParams
	switch jobKinds[kind] {
	case "bfs", "sssp":
		p.Root = &w.roots[ri]
	case "pagerank":
		iters, eps := servePRIters, 0.0
		p.MaxIters, p.Eps = &iters, &eps
	}
	return p
}

func (w *serveWorkload) request(kind, ri int) []byte {
	b, err := json.Marshal(serve.JobRequest{Graph: serveGraph, Algo: jobKinds[kind], Params: w.params(kind, ri)})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

func (w *serveWorkload) setup(tr *tracer) error {
	start := time.Now()
	srv, err := serve.NewServer(serve.ServerConfig{
		Scheduler: serve.SchedulerConfig{
			MaxConcurrent: serveClients,
			Workers:       engineWorkers,
			Threads:       engineThreads,
		},
		Preload: []serve.GraphSpec{{
			Name: serveGraph, Gen: "rmat",
			N: w.cfg.sz.serveN, M: w.cfg.sz.serveN * w.cfg.sz.serveDeg,
			Seed: w.cfg.seed, Weighted: true,
		}},
	})
	if err != nil {
		return err
	}
	w.st.gen = time.Since(start)
	if tr != nil {
		tr.add("graph.gen", noSpan, noSpan, start, start.Add(w.st.gen))
	}
	w.srv = srv
	if w.h, err = srv.Catalog().Get(serveGraph); err != nil {
		return err
	}
	start = time.Now()
	w.h.Prewarm(engineWorkers)
	w.st.partBuild = time.Since(start)
	if tr != nil {
		tr.add("partition.build", noSpan, noSpan, start, start.Add(w.st.partBuild))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	for c := range w.httpc {
		// One keep-alive connection per client, like one flashd user each.
		w.httpc[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return nil
}

func (w *serveWorkload) teardown() error {
	if w.hs == nil {
		return nil
	}
	for _, c := range w.httpc {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	w.srv.Close()
	w.srv, w.h, w.hs = nil, nil, nil
	return err
}

// jobReply is the part of the jobs endpoints' JSON the client reads.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Result *struct {
		Values    json.RawMessage `json:"values"`
		ElapsedNs int64           `json:"elapsed_ns"`
	} `json:"result"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// call does one HTTP exchange and decodes the reply, reading the full body.
func call(c *http.Client, method, url string, body []byte, want int) (jobReply, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return jobReply{}, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return jobReply{}, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobReply{}, 0, err
	}
	var rep jobReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return jobReply{}, len(raw), fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		msg := ""
		if rep.Error != nil {
			msg = rep.Error.Code + ": " + rep.Error.Message
		}
		return rep, len(raw), fmt.Errorf("%s %s: status %d, want %d (%s)", method, url, resp.StatusCode, want, msg)
	}
	return rep, len(raw), nil
}

// runJob submits one job and waits for its result. With a tracer the job is
// one span whose children are the job's queue and run intervals as the server
// publishes them (Job.Enqueued, Job.Done, JobResult.ElapsedNs); the span's
// self time is then what the client waited beyond queue and run: request
// parsing, admission, result JSON, HTTP. The two HTTP exchanges are not spans
// of their own: a job starts running the moment it is admitted, so its run
// overlaps the tail of the POST and the two views of one interval would count
// that time twice.
func (w *serveWorkload) runJob(c *http.Client, kind, ri int, tr *tracer, parent, op int) jobOut {
	out := jobOut{rec: jobRec{kind: kind, root: ri}}
	fail := func(err error) jobOut {
		out.rec.err = err
		return out
	}
	start := time.Now()
	span := noSpan
	if tr != nil {
		span = tr.begin("serve.job."+jobKinds[kind], parent, op)
		defer tr.end(span)
	}
	rep, _, err := call(c, http.MethodPost, w.base+"/v1/jobs", w.reqs[kind*len(w.roots)+ri], http.StatusAccepted)
	if err != nil {
		return fail(err)
	}
	out.submit = time.Since(start)

	var enqueued time.Time
	var doneAt chan time.Time
	if tr != nil {
		job, err := w.srv.Scheduler().Get(rep.ID)
		if err != nil {
			return fail(err)
		}
		enqueued = job.Enqueued
		doneAt = make(chan time.Time, 1)
		go func() {
			<-job.Done()
			doneAt <- time.Now()
		}()
	}
	rep, n, err := call(c, http.MethodGet, w.base+"/v1/jobs/"+rep.ID+"?wait="+serveWaitSpec, nil, http.StatusOK)
	out.lat = time.Since(start)
	if err != nil {
		return fail(err)
	}
	if rep.State != string(serve.JobDone) || rep.Result == nil {
		msg := ""
		if rep.Error != nil {
			msg = rep.Error.Code + ": " + rep.Error.Message
		}
		return fail(fmt.Errorf("job %s ended in state %q (%s)", rep.ID, rep.State, msg))
	}
	out.bodyLen = n
	out.run = time.Duration(rep.Result.ElapsedNs)
	out.rec.digest = digestBytes(rep.Result.Values)
	if tr != nil {
		// The reply said "done", so the watcher has fired or is about to.
		done := <-doneAt
		runStart := done.Add(-out.run)
		out.queue = max(0, runStart.Sub(enqueued))
		tr.add("serve.queue", span, op, enqueued, enqueued.Add(out.queue))
		tr.add("serve.run", span, op, runStart, done)
	}
	return out
}

func (w *serveWorkload) beginCounted() {
	w.met0 = w.srv.Metrics()
}

func (w *serveWorkload) clients() int { return serveClients }

// round runs one cycle per root of the pool, split over the two clients:
// client c takes the roots with index mod 2 == c. An op is one four-job cycle;
// the round ends when both clients have finished.
func (w *serveWorkload) round(mode roundMode) (roundRun, error) {
	n := len(w.roots)
	first := w.next
	w.next += n
	rr := roundRun{lats: make([]time.Duration, n)}
	jobs := make([][]jobOut, n)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ri := c; ri < n; ri += serveClients {
				cycle, op := noSpan, first+ri
				t0 := time.Now()
				if mode.tr != nil {
					cycle = mode.tr.begin("serve.cycle", noSpan, op)
				}
				for kind := range jobKinds {
					jobs[ri] = append(jobs[ri], w.runJob(w.httpc[c], kind, ri, mode.tr, cycle, op))
				}
				if mode.tr != nil {
					mode.tr.end(cycle)
				}
				rr.lats[ri] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	rr.wall = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	for _, cycle := range jobs {
		for _, j := range cycle {
			w.recs = append(w.recs, j.rec)
		}
		switch {
		case mode.tr != nil:
			w.tracedJobs = append(w.tracedJobs, cycle...)
		case mode.counted:
			w.jobs = append(w.jobs, cycle...)
		}
	}
	if mode.counted {
		w.countedWall += rr.wall
	}
	return rr, nil
}

func (w *serveWorkload) directOpts() []flash.Option {
	return []flash.Option{flash.WithWorkers(engineWorkers), flash.WithThreads(engineThreads)}
}

// verify checks every job body against serve.RunAlgo called directly (no
// server, queue or HTTP in between), and RunAlgo's output against the serial
// oracles.
func (w *serveWorkload) verify() (attempted, failed int, err error) {
	g := w.h.Graph()
	pool := len(w.roots)
	want := make([]uint64, len(jobKinds)*pool)
	ok := make([]bool, len(jobKinds)*pool)
	wantCC := oracleCC(g)
	wantPR := oraclePageRank(g, servePRIters)
	for kind, name := range jobKinds {
		for ri, root := range w.roots {
			i := kind*pool + ri
			if ri > 0 && (name == "cc" || name == "pagerank") {
				want[i], ok[i] = want[i-1], ok[i-1] // rootless: one run serves the pool
				continue
			}
			body, err := serve.RunAlgo(name, g, w.params(kind, ri), w.directOpts()...)
			if err != nil {
				return 0, 0, fmt.Errorf("direct %s: %w", name, err)
			}
			want[i] = digestBytes(body)
			switch name {
			case "bfs":
				var got []int32
				ok[i] = json.Unmarshal(body, &got) == nil && slices.Equal(got, oracleBFS(g, graph.VID(root)))
			case "cc":
				var got []uint32
				ok[i] = json.Unmarshal(body, &got) == nil && slices.Equal(got, wantCC)
			case "pagerank":
				var got []float64
				ok[i] = json.Unmarshal(body, &got) == nil && closeFloat64(got, wantPR)
			case "sssp":
				var got []float32
				ok[i] = json.Unmarshal(body, &got) == nil && slices.Equal(got, ssspJSON(oracleSSSP(g, graph.VID(root))))
			}
		}
	}
	for _, r := range w.recs {
		attempted++
		i := r.kind*pool + r.root
		if r.err != nil || !ok[i] || r.digest != want[i] {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "flashmark: serve-mix: %s job on root #%d failed verification (err=%v oracle_ok=%v digest %#x want %#x)\n",
					jobKinds[r.kind], r.root, r.err, ok[i], r.digest, want[i])
			}
			failed++
		}
	}
	// An op is a cycle; a cycle fails when any of its four jobs does.
	return attempted / len(jobKinds), (failed + len(jobKinds) - 1) / len(jobKinds), nil
}

// ssspJSON is the service's wire convention for SSSP: JSON has no Inf, so
// unreachable is -1.
func ssspJSON(dist []float32) []float32 {
	for i, d := range dist {
		if math.IsInf(float64(d), 1) {
			dist[i] = -1
		}
	}
	return dist
}

func (w *serveWorkload) layers(ls layerSet, lc layerCtx) (string, error) {
	g := w.h.Graph()
	ls["graph.gen_ms"] = ms(w.st.gen)
	ls["partition.build_ms"] = ms(w.st.partBuild)
	ls["partition.shared_mb"] = float64(w.h.SharedBytes()) / mib
	ls["graph.resident_mb"] = float64(w.h.GraphBytes()) / mib
	ls["graph.csr_scan_ns_per_edge"] = probeCSRScan(g)

	// Service-side view of the counted phase.
	met := w.srv.Metrics()
	submitted := float64(met.Submitted - w.met0.Submitted)
	var rejected uint64
	for code, n := range met.Rejected {
		rejected += n - w.met0.Rejected[code]
	}
	if submitted+float64(rejected) > 0 {
		ls["serve.rejected_ratio"] = float64(rejected) / (submitted + float64(rejected))
	}
	if w.countedWall > 0 {
		ls["serve.slot_busy_ratio"] = float64(met.BusyNs-w.met0.BusyNs) / (float64(w.countedWall) * serveClients)
	}

	// Client-side view of the counted phase, per job.
	var all, run, kb []float64
	byKind := make([][]float64, len(jobKinds))
	for _, j := range w.jobs {
		all = append(all, ms(j.lat))
		run = append(run, ms(j.run))
		kb = append(kb, float64(j.bodyLen)/1024)
		byKind[j.rec.kind] = append(byKind[j.rec.kind], ms(j.lat))
	}
	for kind, name := range jobKinds {
		ls["serve.job_p50_ms."+name] = median(byKind[kind])
	}
	ls["serve.job_p90_ms"] = percentile(all, 90)
	ls["serve.run_ms_p50"] = median(run)
	ls["serve.result_kb_per_job"] = median(kb)

	// Queue wait needs the server's timestamps, which only the traced round
	// collects; HTTP overhead is what is left of a job's client latency.
	var queue, overhead, submit []float64
	for _, j := range w.tracedJobs {
		queue = append(queue, ms(j.queue))
		overhead = append(overhead, ms(j.lat-j.queue-j.run))
		submit = append(submit, ms(j.submit))
	}
	fmt.Fprintf(lc.report, "client %s: POST /v1/jobs takes %.3f ms (median) of a job's %.3f ms; the job is already running by then\n",
		wServe, median(submit), median(all))
	ls["serve.queue_wait_ms_p50"] = median(queue)
	ls["serve.http_overhead_ms_p50"] = median(overhead)

	// Direct-driver pass: the same four jobs on the same graph through the
	// span-bracketed local drivers, one cycle per root. It splits a job's
	// run into engine construction and teardown versus supersteps, and is
	// where this workload's core and comm counters come from.
	col := metrics.New()
	var stateBytes uint64
	handleOpts := append(w.directOpts(), flash.WithGraphHandle(w.h))
	opts := append(slices.Clone(handleOpts),
		flash.WithCollector(col),
		flash.WithRunStats(func(s flash.RunStats) { stateBytes = max(stateBytes, s.StateBytes) }))
	directFrom := lc.tr.count()
	for ri, root := range w.roots {
		if err := w.directCycle(lc.tr, ri, graph.VID(root), g, opts); err != nil {
			return "", err
		}
	}
	stats := selfTimes(lc.tr.snapshot(), directFrom)
	pool := len(w.roots)
	counterMetrics(ls, col, pool, g.NumVertices())
	spanMetrics(ls, stats, pool)
	ls["core.state_mb"] = float64(stateBytes) / mib

	var err error
	if ls["partition.replication_factor"], err = probeReplication(g, handleOpts); err != nil {
		return "", err
	}
	if err := commProbes[prProps](ls, col); err != nil {
		return "", err
	}

	// Both shares are ratios within one pass, so a disturbed pass scales
	// numerator and denominator alike.
	total := func(st map[string]*nameStat, names ...string) (d time.Duration) {
		for _, name := range names {
			if s := st[name]; s != nil {
				d += s.total
			}
		}
		return d
	}
	http := selfTimes(lc.tr.snapshot()[:directFrom], lc.tracedFrom)
	engine := total(stats, "core.NewEngine", "core.Close")
	steps := total(stats, "core.VertexMap", "core.EdgeMap", "core.Gather")
	stepShare := float64(steps) / float64(total(stats, "flash.op"))
	runShare := float64(total(http, "serve.run")) / float64(total(http, "serve.cycle"))
	fmt.Fprintf(lc.report, "direct %s: supersteps are %.0f%% of a job's run (NewEngine+Close %.1f%%), run is %.0f%% of the HTTP cycle: supersteps are %.0f%% of the cycle\n",
		wServe, 100*stepShare, 100*float64(engine)/float64(total(stats, "flash.op")), 100*runShare, 100*stepShare*runShare)
	return "serve.run", nil
}

// directCycle runs one bfs -> cc -> pagerank -> sssp cycle through the local
// drivers and checks each result against the body digest the server gave for
// the same job.
func (w *serveWorkload) directCycle(tr *tracer, ri int, root graph.VID, g *graph.Graph, opts []flash.Option) error {
	op := -2 - ri // direct-pass ops get ids of their own, below the set-up id
	id := tr.begin("flash.op", noSpan, op)
	defer tr.end(id)
	dis, err := tracedBFS(tr, id, op, g, root, opts)
	if err != nil {
		return err
	}
	cc, err := tracedCC(tr, id, op, g, opts)
	if err != nil {
		return err
	}
	pr, err := tracedPageRank(tr, id, op, g, servePRIters, 0, opts)
	if err != nil {
		return err
	}
	dist, err := tracedSSSP(tr, id, op, g, root, opts)
	if err != nil {
		return err
	}
	for kind, values := range []any{dis, cc, pr, ssspJSON(dist)} {
		body, err := json.Marshal(values)
		if err != nil {
			return err
		}
		// Recorded like a served job, so verify holds the local drivers to
		// the same reference as the server's bodies.
		w.recs = append(w.recs, jobRec{kind: kind, root: ri, digest: digestBytes(body)})
	}
	return nil
}
