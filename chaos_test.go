// Chaos soak test: the full public stack (algo → flash → core → comm) run
// under a seeded Faulty transport with worker stalls, crashes and frame
// delay/reordering. The runtime must absorb every injected fault through
// checkpoint recovery and produce results identical to the fault-free run.
package flash_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/internal/comm"
	"flash/metrics"
)

// chaosPlan scripts, for a w-worker engine, one worker stall and one worker
// crash (the acceptance scenario) plus background probabilistic delays, all
// seeded for reproducibility.
func chaosPlan(seed int64, w int) flash.FaultPlan {
	p := flash.FaultPlan{
		Seed:      seed,
		DelayProb: 0.2,
		Reorder:   true,
	}
	if w >= 2 {
		p.Stalls = []flash.WorkerStall{{Worker: w - 1, Round: 3, Delay: 250 * time.Millisecond}}
		p.Crashes = []flash.WorkerCrash{{Worker: 0, Round: 6}}
	}
	return p
}

// chaosOpts arms recovery: frequent checkpoints and a drain timeout that
// turns the scripted stall into a detectable failure.
func chaosOpts(w int, seed int64, col *metrics.Collector) []flash.Option {
	return []flash.Option{
		flash.WithWorkers(w),
		flash.WithCollector(col),
		flash.WithCheckpointEvery(2),
		flash.WithDrainTimeout(80 * time.Millisecond),
		flash.WithFaultPlan(chaosPlan(seed, w)),
	}
}

func TestChaosBFSAndCCMatchFaultFree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   graph.GenErdosRenyi(200, 900, 5),
		"rmat": graph.GenRMAT(256, 1024, 6),
	}
	for name, g := range graphs {
		wantDis, err := algo.BFS(g, 0, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		wantCC, err := algo.CC(g, flash.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		// testing/quick-style iteration: every (workers, seed) cell runs the
		// same scripted faults with a different probabilistic-fault stream.
		for _, w := range []int{1, 2, 3, 4, 8} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", name, w, seed), func(t *testing.T) {
					col := metrics.New()
					gotDis, err := algo.BFS(g, 0, chaosOpts(w, seed, col)...)
					if err != nil {
						t.Fatalf("bfs under chaos: %v", err)
					}
					for v := range wantDis {
						if gotDis[v] != wantDis[v] {
							t.Fatalf("bfs dist[%d]=%d want %d", v, gotDis[v], wantDis[v])
						}
					}
					gotCC, err := algo.CC(g, chaosOpts(w, seed+100, col)...)
					if err != nil {
						t.Fatalf("cc under chaos: %v", err)
					}
					for v := range wantCC {
						if gotCC[v] != wantCC[v] {
							t.Fatalf("cc label[%d]=%d want %d", v, gotCC[v], wantCC[v])
						}
					}
					// The scripted stall and crash must have been absorbed by
					// checkpoint recovery.
					if w >= 2 && col.Recoveries == 0 {
						t.Errorf("no checkpoint recoveries recorded under chaos (%v)", col)
					}
				})
			}
		}
	}
}

// lossOpts arms worker-loss survival: a durable file-backed checkpoint store,
// a short drain deadline so a dead peer is detected quickly, and one
// scripted hard kill of the last worker.
func lossOpts(t *testing.T, w int, col *metrics.Collector, tcp bool) []flash.Option {
	t.Helper()
	store, err := flash.NewFileCheckpointStore(filepath.Join(t.TempDir(), "ckpt.flash"))
	if err != nil {
		t.Fatal(err)
	}
	opts := []flash.Option{
		flash.WithWorkers(w),
		flash.WithCollector(col),
		flash.WithCheckpointEvery(2),
		flash.WithCheckpointStore(store),
		flash.WithMaxRecoveries(6),
		flash.WithDrainTimeout(150 * time.Millisecond),
		flash.WithFaultPlan(flash.FaultPlan{
			Kills: []flash.WorkerKill{{Worker: w - 1, Round: 3}},
		}),
	}
	if tcp {
		opts = append(opts, flash.WithTCP())
	}
	return opts
}

// TestChaosWorkerLossColdRestart is the worker-loss acceptance scenario on
// the full public stack: a worker is hard-killed mid-run (every transport
// call of its fails permanently), the survivors' drain deadline fails the
// round, the engine cold-restarts it from the graph and the file-backed
// checkpoint store, and BFS/CC/PageRank finish byte-identical to fault-free
// runs — on both the in-memory and the loopback-TCP transport.
func TestChaosWorkerLossColdRestart(t *testing.T) {
	g := graph.GenErdosRenyi(200, 900, 5)
	wantDis, err := algo.BFS(g, 0, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	wantCC, err := algo.CC(g, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	wantPR, err := algo.PageRank(g, 15, 0, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	wantDist, err := algo.SSSP(g, 0, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	wantKT, err := algo.KTruss(g, 3, flash.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			colBFS := metrics.New()
			gotDis, err := algo.BFS(g, 0, lossOpts(t, 4, colBFS, tcp)...)
			if err != nil {
				t.Fatalf("bfs did not survive the kill: %v", err)
			}
			for v := range wantDis {
				if gotDis[v] != wantDis[v] {
					t.Fatalf("bfs dist[%d]=%d want %d", v, gotDis[v], wantDis[v])
				}
			}
			if colBFS.Restarts == 0 {
				t.Errorf("bfs: no cold restarts recorded (%v)", colBFS)
			}
			if colBFS.CheckpointBytes == 0 {
				t.Errorf("bfs: no checkpoint bytes recorded despite a file store (%v)", colBFS)
			}

			colCC := metrics.New()
			gotCC, err := algo.CC(g, lossOpts(t, 4, colCC, tcp)...)
			if err != nil {
				t.Fatalf("cc did not survive the kill: %v", err)
			}
			for v := range wantCC {
				if gotCC[v] != wantCC[v] {
					t.Fatalf("cc label[%d]=%d want %d", v, gotCC[v], wantCC[v])
				}
			}
			if colCC.Restarts == 0 {
				t.Errorf("cc: no cold restarts recorded (%v)", colCC)
			}

			// PageRank bounded to 2 workers so the float reduction order is
			// deterministic and exact equality is the correct assertion.
			colPR := metrics.New()
			gotPR, err := algo.PageRank(g, 15, 0, lossOpts(t, 2, colPR, tcp)...)
			if err != nil {
				t.Fatalf("pagerank did not survive the kill: %v", err)
			}
			for v := range wantPR {
				if gotPR[v] != wantPR[v] {
					t.Fatalf("rank[%d]=%v want %v (not bit-identical)", v, gotPR[v], wantPR[v])
				}
			}
			if colPR.Restarts == 0 {
				t.Errorf("pagerank: no cold restarts recorded (%v)", colPR)
			}

			// SSSP's min-reduction over float distances is exact regardless
			// of reduction order, so byte-identity holds at any worker count.
			colSP := metrics.New()
			gotDist, err := algo.SSSP(g, 0, lossOpts(t, 4, colSP, tcp)...)
			if err != nil {
				t.Fatalf("sssp did not survive the kill: %v", err)
			}
			for v := range wantDist {
				if gotDist[v] != wantDist[v] {
					t.Fatalf("sssp dist[%d]=%v want %v", v, gotDist[v], wantDist[v])
				}
			}
			if colSP.Restarts == 0 {
				t.Errorf("sssp: no cold restarts recorded (%v)", colSP)
			}

			// k-truss exercises variable-length neighbor-list properties
			// through checkpoint encode/decode; the surviving edge set is
			// unique, so compare as a set.
			colKT := metrics.New()
			gotKT, err := algo.KTruss(g, 3, lossOpts(t, 4, colKT, tcp)...)
			if err != nil {
				t.Fatalf("ktruss did not survive the kill: %v", err)
			}
			if len(gotKT) != len(wantKT) {
				t.Fatalf("ktruss: %d edges, want %d", len(gotKT), len(wantKT))
			}
			inTruss := make(map[[2]graph.VID]bool, len(wantKT))
			for _, e := range wantKT {
				inTruss[e] = true
			}
			for _, e := range gotKT {
				if !inTruss[e] {
					t.Fatalf("ktruss: edge %v not in fault-free truss", e)
				}
			}
			if colKT.Restarts == 0 {
				t.Errorf("ktruss: no cold restarts recorded (%v)", colKT)
			}
		})
	}
}

// elasticSchedule is the elastic-membership acceptance scenario's plan: grow
// to 8 workers after superstep 2, shrink to 4 after superstep 4.
var elasticSchedule = flash.SchedulePolicy(map[int]int{2: 8, 4: 4})

// roundClock counts worker 0's completed exchange rounds on the transport it
// wraps — every worker completes the same rounds, so this is the run's round
// clock.
type roundClock struct {
	comm.Transport
	rounds atomic.Uint32
}

func (c *roundClock) EndRound(from int) error {
	if from == 0 {
		c.rounds.Add(1)
	}
	return c.Transport.EndRound(from)
}

// firstResyncRound runs the elastic scenario fault-free and returns the round
// address of the mirror resync the restore into the 8-worker membership
// performs. The fault transport's addresses run on across a resize,
// restarting one past the rounds completed when it begins, so a fault keyed
// here can only land after the membership swap.
func firstResyncRound(t *testing.T, tcp bool, run func(opts ...flash.Option) error) uint32 {
	t.Helper()
	var inner comm.Transport = comm.NewMem(2)
	if tcp {
		var err error
		if inner, err = comm.NewTCP(2); err != nil {
			t.Fatal(err)
		}
	}
	clock := &roundClock{Transport: inner}
	var round uint32
	err := run(flash.WithWorkers(2), flash.WithTransport(clock),
		flash.WithResizePolicy(func(s flash.StepInfo) int {
			if s.Superstep == 2 {
				round = clock.rounds.Load() + 1
			}
			return elasticSchedule(s)
		}))
	if err != nil {
		t.Fatalf("fault-free elastic run: %v", err)
	}
	return round
}

// resizeChaosOpts arms the elastic-membership acceptance scenario: a 2-worker
// engine scheduled to grow to 8 workers after superstep 2 and shrink to 4
// after superstep 4, with worker 1 hard-killed in round killRound — the
// resync round of the first resize, after the membership swap. Recovery must
// start a fresh incarnation of the 8-worker membership and restore the
// pre-resize image into it.
func resizeChaosOpts(t *testing.T, col *metrics.Collector, tcp bool, killRound uint32) []flash.Option {
	t.Helper()
	store, err := flash.NewFileCheckpointStore(filepath.Join(t.TempDir(), "ckpt.flash"))
	if err != nil {
		t.Fatal(err)
	}
	opts := []flash.Option{
		flash.WithWorkers(2),
		flash.WithCollector(col),
		flash.WithCheckpointEvery(1),
		flash.WithCheckpointStore(store),
		flash.WithMaxRecoveries(6),
		flash.WithDrainTimeout(200 * time.Millisecond),
		flash.WithResizePolicy(elasticSchedule),
		flash.WithFaultPlan(flash.FaultPlan{
			Kills: []flash.WorkerKill{{Worker: 1, Round: killRound}},
		}),
	}
	if tcp {
		opts = append(opts, flash.WithTCP())
	}
	return opts
}

// TestChaosElasticResizeWithMidMigrationKill is the elastic-membership
// acceptance scenario on the full public stack: a run that scales w2→w8→w4
// mid-flight, with a worker hard-killed inside the first resize, must finish
// byte-identical to a fault-free fixed-4-worker run on both transports.
// Exact-arithmetic algorithms only: BFS/CC/SSSP reduce by min and k-truss by
// set peeling, so results are invariant to membership; PageRank's float sum
// order is not.
func TestChaosElasticResizeWithMidMigrationKill(t *testing.T) {
	g := graph.GenErdosRenyi(200, 900, 5)
	wantDis, err := algo.BFS(g, 0, flash.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	wantCC, err := algo.CC(g, flash.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	wantSP, err := algo.SSSP(g, 0, flash.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	wantKT, err := algo.KTruss(g, 3, flash.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	inTruss := make(map[[2]graph.VID]bool, len(wantKT))
	for _, e := range wantKT {
		inTruss[e] = true
	}
	// Each run returns an error when its result differs from the fixed-w4 one.
	runs := []struct {
		name string
		run  func(opts ...flash.Option) error
	}{
		{"bfs", func(opts ...flash.Option) error {
			got, err := algo.BFS(g, 0, opts...)
			if err == nil && !slices.Equal(got, wantDis) {
				err = errors.New("distances differ from the fixed-w4 run")
			}
			return err
		}},
		{"cc", func(opts ...flash.Option) error {
			got, err := algo.CC(g, opts...)
			if err == nil && !slices.Equal(got, wantCC) {
				err = errors.New("labels differ from the fixed-w4 run")
			}
			return err
		}},
		{"sssp", func(opts ...flash.Option) error {
			got, err := algo.SSSP(g, 0, opts...)
			if err == nil && !slices.Equal(got, wantSP) {
				err = errors.New("distances differ from the fixed-w4 run")
			}
			return err
		}},
		// k-truss re-homes variable-length neighbor-list properties — the
		// codec-heavy corner of a cross-width restore. The surviving edge set
		// is unique, so compare as a set.
		{"ktruss", func(opts ...flash.Option) error {
			got, err := algo.KTruss(g, 3, opts...)
			if err != nil {
				return err
			}
			if len(got) != len(wantKT) {
				return fmt.Errorf("%d edges, want %d", len(got), len(wantKT))
			}
			for _, e := range got {
				if !inTruss[e] {
					return fmt.Errorf("edge %v not in the fixed-w4 truss", e)
				}
			}
			return nil
		}},
	}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			for _, r := range runs {
				col := metrics.New()
				killRound := firstResyncRound(t, tcp, r.run)
				if err := r.run(resizeChaosOpts(t, col, tcp, killRound)...); err != nil {
					t.Fatalf("%s did not survive the elastic run: %v", r.name, err)
				}
				if col.Resizes != 2 {
					t.Errorf("%s: %d resizes completed, want 2 (%v)", r.name, col.Resizes, col)
				}
				if col.MigratedBytes == 0 {
					t.Errorf("%s: no re-homed master state recorded (%v)", r.name, col)
				}
				if col.Recoveries == 0 {
					t.Errorf("%s: the kill inside the resize caused no recovery (%v)", r.name, col)
				}
				if col.Restarts == 0 {
					t.Errorf("%s: the killed worker was never cold-restarted (%v)", r.name, col)
				}
			}
		})
	}
}

// TestStallConvertsToErrorBothTransports verifies the bounded-failure
// guarantee: without checkpointing armed, a worker that stalls past the
// superstep deadline turns into a typed ErrPeerStalled within a bounded
// window on both transports — never a hang.
func TestStallConvertsToErrorBothTransports(t *testing.T) {
	g := graph.GenErdosRenyi(150, 600, 7)
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			opts := []flash.Option{
				flash.WithWorkers(2),
				flash.WithDrainTimeout(100 * time.Millisecond),
				flash.WithFaultPlan(flash.FaultPlan{
					Stalls: []flash.WorkerStall{{Worker: 1, Round: 2, Delay: 700 * time.Millisecond}},
				}),
			}
			if tcp {
				opts = append(opts, flash.WithTCP())
			}
			start := time.Now()
			_, err := algo.BFS(g, 0, opts...)
			if err == nil {
				t.Fatal("stall absorbed without checkpointing enabled")
			}
			if !errors.Is(err, flash.ErrPeerStalled) {
				t.Fatalf("err=%v, want ErrPeerStalled", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("failure took %v, want bounded detection", elapsed)
			}
		})
	}
}

// TestChaosPageRankBitIdentical verifies float results survive recovery
// bit-for-bit. Bounded to <=2 workers: with at most one remote partial per
// target the floating-point reduction order is deterministic, so exact
// equality is the correct assertion (beyond that, reduction order — not
// fault handling — perturbs last-bit rounding).
func TestChaosPageRankBitIdentical(t *testing.T) {
	g := graph.GenRMAT(200, 800, 9)
	for _, w := range []int{1, 2} {
		want, err := algo.PageRank(g, 15, 0, flash.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.New()
		got, err := algo.PageRank(g, 15, 0, chaosOpts(w, 4, col)...)
		if err != nil {
			t.Fatalf("pagerank under chaos (w=%d): %v", w, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("w=%d: rank[%d]=%v want %v (not bit-identical)", w, v, got[v], want[v])
			}
		}
	}
}
