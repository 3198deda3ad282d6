// Command flashrun executes one FLASH algorithm on a graph from a file or a
// named generator and prints a result summary plus the runtime metrics
// breakdown.
//
// Usage:
//
//	flashrun -algo bfs -gen rmat -n 10000 -m 80000 [-workers 4] [-root 0]
//	flashrun -algo cc -input edges.txt
//	flashrun -algo cc -gen rmat -workers 2 -resize-at 3 -resize-to 8
//
// Algorithms: bfs, cc, ccopt, bc, mis, mm, mmopt, kc, kcopt, tc, gc, scc,
// bcc, lpa, msf, rc, cl, sssp, pagerank.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/internal/serve"
	"flash/metrics"
)

func main() {
	var (
		algoName = flag.String("algo", "bfs", "algorithm to run")
		input    = flag.String("input", "", "edge-list file (overrides -gen)")
		gen      = flag.String("gen", "rmat", "generator: rmat, grid, web, er, path, cycle, star, tree, randdir")
		n        = flag.Int("n", 10000, "vertices for the generator")
		m        = flag.Int("m", 80000, "edges for the generator")
		rows     = flag.Int("rows", 100, "grid rows")
		cols     = flag.Int("cols", 100, "grid cols")
		seed     = flag.Int64("seed", 42, "generator seed")
		workers  = flag.Int("workers", 4, "workers")
		threads  = flag.Int("threads", 1, "threads per worker")
		root     = flag.Uint("root", 0, "root vertex for bfs/bc/sssp")
		k        = flag.Int("k", 4, "k for cl")
		iters    = flag.Int("iters", 10, "iterations for lpa/pagerank")
		directed = flag.Bool("directed", false, "treat input edge list as directed")
		tcp      = flag.Bool("tcp", false, "use the loopback TCP transport")

		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint all worker state every n supersteps (0 disables recovery)")
		ckptFile     = flag.String("ckpt-file", "", "durable checkpoint file (default: in-memory store)")
		drainTimeout = flag.Duration("drain-timeout", 0, "per-round peer stall timeout (0 selects the 30s default, negative waits forever)")
		maxRecover   = flag.Int("max-recoveries", 0, "rollback/restart budget (0 keeps the default)")
		chaos        = flag.Bool("chaos", false, "inject seeded transport faults (delays, reordering)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault-injection seed")
		delayProb    = flag.Float64("delay-prob", 0.05, "chaos: per-frame delay-to-end-of-round probability")
		killWorker   = flag.Int("kill-worker", -1, "hard-kill this worker permanently mid-run (detected at -drain-timeout; recovery needs -checkpoint-every)")
		killRound    = flag.Int("kill-round", 3, "transport round at which -kill-worker dies")
		resizeAt     = flag.Int("resize-at", 0, "superstep after which the engine resizes to -resize-to workers (0 disables)")
		resizeTo     = flag.Int("resize-to", 0, "target worker count for -resize-at")
	)
	flag.Parse()

	g, err := serve.BuildGraph(serve.GraphSpec{Path: *input, Gen: *gen, N: *n, M: *m,
		Rows: *rows, Cols: *cols, Seed: *seed, Directed: *directed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashrun:", err)
		os.Exit(1)
	}
	fmt.Println(g)

	col := metrics.New()
	opts := []flash.Option{
		flash.WithWorkers(*workers),
		flash.WithThreads(*threads),
		flash.WithCollector(col),
	}
	if *tcp {
		opts = append(opts, flash.WithTCP())
	}
	if *ckptEvery > 0 {
		opts = append(opts, flash.WithCheckpointEvery(*ckptEvery))
	}
	if *ckptFile != "" {
		store, err := flash.NewFileCheckpointStore(*ckptFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flashrun:", err)
			os.Exit(1)
		}
		opts = append(opts, flash.WithCheckpointStore(store))
	}
	if *drainTimeout != 0 {
		opts = append(opts, flash.WithDrainTimeout(*drainTimeout))
	}
	if *maxRecover > 0 {
		opts = append(opts, flash.WithMaxRecoveries(*maxRecover))
	}
	plan := flash.FaultPlan{Seed: *chaosSeed}
	usePlan := false
	if *chaos {
		plan.DelayProb = *delayProb
		plan.Reorder = true
		usePlan = true
	}
	if *killWorker >= 0 {
		plan.Kills = []flash.WorkerKill{{Worker: *killWorker, Round: uint32(*killRound)}}
		usePlan = true
	}
	if usePlan {
		opts = append(opts, flash.WithFaultPlan(plan))
	}
	if *resizeAt > 0 {
		if *resizeTo < 1 {
			fmt.Fprintln(os.Stderr, "flashrun: -resize-at needs -resize-to >= 1")
			os.Exit(1)
		}
		opts = append(opts, flash.WithResizePolicy(
			flash.SchedulePolicy(map[int]int{*resizeAt: *resizeTo})))
	}

	start := time.Now()
	summary, err := runAlgo(*algoName, g, graph.VID(*root), *k, *iters, *seed, opts)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashrun:", err)
		os.Exit(1)
	}
	fmt.Println(summary)
	fmt.Printf("elapsed: %v\n", elapsed.Round(time.Microsecond))
	fmt.Printf("metrics: %v\n", col)
	bd := col.Breakdown()
	fmt.Printf("breakdown: computation %.0f%%, communication %.0f%%, serialization %.0f%%, other %.0f%%\n",
		bd[metrics.Compute]*100, bd[metrics.Communication]*100, bd[metrics.Serialization]*100, bd[metrics.Other]*100)
}

func runAlgo(name string, g *graph.Graph, root graph.VID, k, iters int, seed int64, opts []flash.Option) (string, error) {
	switch name {
	case "bfs":
		dis, err := algo.BFS(g, root, opts...)
		if err != nil {
			return "", err
		}
		reached, far := 0, int32(0)
		for _, d := range dis {
			if d >= 0 {
				reached++
				if d > far {
					far = d
				}
			}
		}
		return fmt.Sprintf("bfs: reached %d vertices, eccentricity %d", reached, far), nil
	case "cc":
		labels, err := algo.CC(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cc: %d components", algo.CountComponents(labels)), nil
	case "ccopt":
		res, err := algo.CCOpt(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cc-opt: %d components in %d rounds",
			algo.CountComponents(res.Labels), res.Rounds), nil
	case "bc":
		scores, err := algo.BC(g, root, opts...)
		if err != nil {
			return "", err
		}
		best, bestV := -1.0, graph.VID(0)
		for v, s := range scores {
			if s > best {
				best, bestV = s, graph.VID(v)
			}
		}
		return fmt.Sprintf("bc: max dependency %.2f at vertex %d", best, bestV), nil
	case "mis":
		in, err := algo.MIS(g, opts...)
		if err != nil {
			return "", err
		}
		c := 0
		for _, x := range in {
			if x {
				c++
			}
		}
		return fmt.Sprintf("mis: %d members", c), nil
	case "mm", "mmopt":
		f := algo.MM
		if name == "mmopt" {
			f = algo.MMOpt
		}
		match, err := f(g, opts...)
		if err != nil {
			return "", err
		}
		c := 0
		for _, p := range match {
			if p != -1 {
				c++
			}
		}
		return fmt.Sprintf("%s: %d matched pairs", name, c/2), nil
	case "kc", "kcopt":
		f := algo.KC
		if name == "kcopt" {
			f = algo.KCOpt
		}
		core, err := f(g, opts...)
		if err != nil {
			return "", err
		}
		maxc := int32(0)
		for _, c := range core {
			if c > maxc {
				maxc = c
			}
		}
		return fmt.Sprintf("%s: degeneracy %d", name, maxc), nil
	case "tc":
		c, err := algo.TC(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("tc: %d triangles", c), nil
	case "gc":
		colors, err := algo.GC(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("gc: %d colors", algo.CountColors(colors)), nil
	case "scc":
		labels, err := algo.SCC(g, opts...)
		if err != nil {
			return "", err
		}
		seen := map[int32]bool{}
		for _, l := range labels {
			seen[l] = true
		}
		return fmt.Sprintf("scc: %d strongly connected components", len(seen)), nil
	case "bcc":
		res, err := algo.BCC(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("bcc: %d biconnected components", algo.CountBCCs(res)), nil
	case "lpa":
		labels, err := algo.LPA(g, iters, opts...)
		if err != nil {
			return "", err
		}
		seen := map[int32]bool{}
		for _, l := range labels {
			seen[l] = true
		}
		return fmt.Sprintf("lpa: %d communities after %d iterations", len(seen), iters), nil
	case "msf":
		wg := g
		if !wg.Weighted() {
			wg = graph.WithRandomWeights(g, seed)
		}
		res, err := algo.MSF(wg, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("msf: %d edges, total weight %.3f", len(res.Edges), res.Weight), nil
	case "rc":
		c, err := algo.RC(g, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("rc: %d rectangles", c), nil
	case "cl":
		c, err := algo.CL(g, k, opts...)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cl: %d %d-cliques", c, k), nil
	case "sssp":
		wg := g
		if !wg.Weighted() {
			wg = graph.WithRandomWeights(g, seed)
		}
		dis, err := algo.SSSP(wg, root, opts...)
		if err != nil {
			return "", err
		}
		reached := 0
		for _, d := range dis {
			if d < 1e29 {
				reached++
			}
		}
		return fmt.Sprintf("sssp: reached %d vertices", reached), nil
	case "pagerank":
		pr, err := algo.PageRank(g, iters, 1e-9, opts...)
		if err != nil {
			return "", err
		}
		best, bestV := -1.0, graph.VID(0)
		for v, r := range pr {
			if r > best {
				best, bestV = r, graph.VID(v)
			}
		}
		return fmt.Sprintf("pagerank: top vertex %d (rank %.5f)", bestV, best), nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", name)
	}
}
