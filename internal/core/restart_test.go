package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flash/graph"
	"flash/internal/comm"
)

// coldRestartConfig is the canonical worker-loss setup: durable file store,
// frequent checkpoints, and a short drain deadline so a dead peer is
// detected quickly.
func coldRestartConfig(t *testing.T, workers int, kills []comm.WorkerKill) Config {
	t.Helper()
	store, err := NewFileStore(filepath.Join(t.TempDir(), "ckpt.flash"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workers:         workers,
		CheckpointEvery: 2,
		MaxRecoveries:   5,
		Store:           store,
		DrainTimeout:    80 * time.Millisecond,
		FaultPlan:       &comm.FaultPlan{Kills: kills},
	}
}

// TestColdRestartSurvivesWorkerKill is the worker-loss end-to-end test: a
// worker is hard-killed mid-run (endpoint torn down, all its calls failing),
// the survivors' drain deadline fails the round, the engine swaps in a fresh
// incarnation and rehydrates it from the file-backed checkpoint store, and
// the run completes with results identical to a fault-free execution.
func TestColdRestartSurvivesWorkerKill(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 3)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, coldRestartConfig(t, 4, []comm.WorkerKill{{Worker: 2, Round: 5}}))
	got, res, err := runBFSChecked(e, 0)
	if err != nil {
		t.Fatalf("run did not survive the kill: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts=%d, want >=1 (res=%+v)", res.Restarts, res)
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >=1", res.Recoveries)
	}
	if res.CheckpointBytes == 0 {
		t.Fatal("no checkpoint bytes recorded despite checkpointing to a file store")
	}
	if res.RecoveryTime <= 0 {
		t.Fatal("recovery time not recorded")
	}
	if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
		t.Fatal(err)
	}
}

// TestColdRestartFromMemStoreAndHash exercises the same path with the
// default in-memory store and hash placement, proving restart correctness is
// independent of the store backend and the partitioning scheme.
func TestColdRestartFromMemStoreAndHash(t *testing.T) {
	g := graph.GenErdosRenyi(100, 420, 9)
	want := seqBFS(g, 0)
	cfg := coldRestartConfig(t, 3, []comm.WorkerKill{{Worker: 1, Round: 4}})
	cfg.Store = NewMemStore()
	cfg.UseHashPlacement = true
	e := mustEngine(t, g, cfg)
	got, res, err := runBFSChecked(e, 0)
	if err != nil {
		t.Fatalf("run did not survive the kill: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Restarts < 1 {
		t.Fatalf("restarts=%d, want >=1", res.Restarts)
	}
}

// TestCrashAndKillRecoverThroughOneSwap: a transient crash and a permanent
// kill are the same event to the engine — a failed round answered by a fresh
// incarnation at the same width, the stored image and replay. Both leave every
// worker replaced (the swap, not a repair of the victim), both end byte-
// identical to the fault-free run on either transport, and only the kill
// counts as a restart.
func TestCrashAndKillRecoverThroughOneSwap(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 3)
	clean, _, err := runBFSChecked(mustEngine(t, g, Config{Workers: 4}), 0)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]struct {
		plan     comm.FaultPlan
		restarts uint64
	}{
		"crash": {comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 2, Round: 5}}}, 0},
		"kill":  {comm.FaultPlan{Kills: []comm.WorkerKill{{Worker: 2, Round: 5}}}, 1},
	}
	for name, fault := range faults {
		for _, tcp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tcp=%v", name, tcp), func(t *testing.T) {
				cfg := coldRestartConfig(t, 4, nil)
				cfg.FaultPlan, cfg.UseTCP = &fault.plan, tcp
				e := mustEngine(t, g, cfg)
				before := append([]*worker[bfsProps](nil), e.workers...)
				part := e.part
				got, res, err := runBFSChecked(e, 0)
				if err != nil {
					t.Fatalf("run did not survive the %s: %v", name, err)
				}
				if !reflect.DeepEqual(got, clean) {
					t.Fatal("recovered result differs from the fault-free run")
				}
				if res.Recoveries != 1 || res.Restarts != fault.restarts {
					t.Fatalf("recoveries=%d restarts=%d, want 1 and %d", res.Recoveries, res.Restarts, fault.restarts)
				}
				for i, w := range e.workers {
					if w == before[i] {
						t.Fatalf("worker %d outlived the recovery: the membership was not swapped", i)
					}
				}
				if e.part != part || e.memberEpoch != 0 {
					t.Fatal("a same-width swap rebuilt the partition or opened a subset epoch")
				}
				if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWorkerKillWithoutCheckpointingFails verifies a permanent loss without
// a checkpoint to restart from is a bounded, clean failure: Run returns an
// error within the deadline instead of hanging.
func TestWorkerKillWithoutCheckpointingFails(t *testing.T) {
	g := graph.GenPath(40)
	e := mustEngine(t, g, Config{
		Workers:      2,
		DrainTimeout: 80 * time.Millisecond,
		FaultPlan:    &comm.FaultPlan{Kills: []comm.WorkerKill{{Worker: 1, Round: 2}}},
	})
	start := time.Now()
	_, _, err := runBFSChecked(e, 0)
	if err == nil {
		t.Fatal("run succeeded despite an unrecoverable worker loss")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure took %v, want bounded detection", elapsed)
	}
}

// TestColdRestartBudgetExhausted verifies a worker that keeps dying runs out
// of recovery budget instead of looping forever.
func TestColdRestartBudgetExhausted(t *testing.T) {
	g := graph.GenPath(40)
	cfg := coldRestartConfig(t, 2, []comm.WorkerKill{
		{Worker: 1, Round: 3},
		{Worker: 1, Round: 0}, // re-kill the revived incarnation immediately
	})
	cfg.MaxRecoveries = 1
	e := mustEngine(t, g, cfg)
	_, res, err := runBFSChecked(e, 0)
	if err == nil {
		t.Fatal("run succeeded despite kills beyond the recovery budget")
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want exactly MaxRecoveries=1", res.Recoveries)
	}
}

// TestDefaultDrainTimeoutApplied verifies the sane-default satellite: leaving
// DrainTimeout zero selects DefaultDrainTimeout, and negative restores the
// wait-forever behavior.
func TestDefaultDrainTimeoutApplied(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.DrainTimeout != DefaultDrainTimeout {
		t.Fatalf("DrainTimeout=%v, want DefaultDrainTimeout", c.DrainTimeout)
	}
	c2 := Config{DrainTimeout: -1}
	c2.fillDefaults()
	if c2.DrainTimeout != -1 {
		t.Fatalf("negative DrainTimeout rewritten to %v", c2.DrainTimeout)
	}
	c3 := Config{CheckpointEvery: 2}
	c3.fillDefaults()
	if c3.Store == nil {
		t.Fatal("checkpointing enabled without a default store")
	}
}
