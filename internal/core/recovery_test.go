package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"flash/graph"
	"flash/internal/comm"
)

// runBFSChecked is runBFS under Run, for programs that may fail.
func runBFSChecked(e *Engine[bfsProps], root graph.VID) ([]int32, RunResult, error) {
	var out []int32
	res, err := e.Run(func() error {
		out = runBFS(e, root, Auto)
		return nil
	})
	return out, res, err
}

// TestRunReturnsErrorOnCrash verifies a mid-superstep worker failure without
// checkpointing surfaces as an error from Run — not a panic, not a deadlock —
// and that the engine then refuses further work.
func TestRunReturnsErrorOnCrash(t *testing.T) {
	g := graph.GenPath(40)
	e := mustEngine(t, g, Config{
		Workers:   2,
		FaultPlan: &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 1, Round: 2}}},
	})
	_, _, err := runBFSChecked(e, 0)
	if err == nil {
		t.Fatal("Run succeeded despite injected crash without checkpointing")
	}
	var ce *comm.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want a CrashError in the chain", err)
	}
	if e.Err() == nil {
		t.Fatal("engine not marked failed")
	}
	if _, err2 := e.Run(func() error { return nil }); err2 == nil {
		t.Fatal("failed engine accepted another Run")
	}
}

// TestRunLeaksNoGoroutines runs a failing superstep and verifies every worker
// goroutine is joined: the goroutine count returns to its baseline.
func TestRunLeaksNoGoroutines(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 3)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e, err := NewEngine[bfsProps](g, Config{
			Workers:   3,
			FaultPlan: &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 2, Round: 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := runBFSChecked(e, 0); err == nil {
			t.Fatal("expected failure")
		}
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, buf[:n])
	}
}

// TestCheckpointRecoveryFromCrash verifies rollback+replay: an injected
// worker crash mid-run is absorbed and the result matches the fault-free
// reference exactly.
func TestCheckpointRecoveryFromCrash(t *testing.T) {
	g := graph.GenPath(40)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{
		Workers:         2,
		CheckpointEvery: 2,
		FaultPlan:       &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 1, Round: 5}}},
	})
	got, res, err := runBFSChecked(e, 0)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >=1 (res=%+v)", res.Recoveries, res)
	}
	if res.Checkpoints < 1 {
		t.Fatalf("checkpoints=%d, want >=1", res.Checkpoints)
	}
	if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecoveryFromStall verifies the stall path: a worker sleeping
// past the drain timeout fails the superstep with ErrPeerStalled, and
// checkpoint recovery completes the run with correct results.
func TestCheckpointRecoveryFromStall(t *testing.T) {
	g := graph.GenErdosRenyi(100, 400, 7)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{
		Workers:         3,
		CheckpointEvery: 2,
		DrainTimeout:    60 * time.Millisecond,
		FaultPlan: &comm.FaultPlan{
			Stalls: []comm.WorkerStall{{Worker: 1, Round: 2, Delay: 300 * time.Millisecond}},
		},
	})
	got, res, err := runBFSChecked(e, 0)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >=1", res.Recoveries)
	}
}

// TestRecoveryBudgetExhausted verifies a persistent fault stops looping: with
// more scripted crashes than MaxRecoveries, Run returns an error.
func TestRecoveryBudgetExhausted(t *testing.T) {
	crashes := make([]comm.WorkerCrash, 0, 8)
	for r := uint32(2); r < 10; r++ {
		crashes = append(crashes, comm.WorkerCrash{Worker: 0, Round: r})
	}
	g := graph.GenPath(40)
	e := mustEngine(t, g, Config{
		Workers:         2,
		CheckpointEvery: 2,
		MaxRecoveries:   2,
		FaultPlan:       &comm.FaultPlan{Crashes: crashes},
	})
	_, res, err := runBFSChecked(e, 0)
	if err == nil {
		t.Fatal("Run succeeded despite persistent crashes beyond the recovery budget")
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries=%d, want exactly MaxRecoveries=2", res.Recoveries)
	}
}

// TestCheckpointedRunMatchesPlain verifies checkpointing alone (no faults)
// does not perturb results.
func TestCheckpointedRunMatchesPlain(t *testing.T) {
	g := graph.GenRMAT(128, 512, 4)
	want := seqBFS(g, 0)
	e := mustEngine(t, g, Config{Workers: 3, CheckpointEvery: 1})
	got, res, err := runBFSChecked(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints taken with CheckpointEvery=1")
	}
}
