package core

import (
	"errors"
	"fmt"
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

// TestRecoveryInSecondRun crashes a worker in an engine's second Run, before
// that Run's first cadence checkpoint: recovery must restore the image the
// second Run took at entry — not one from the first Run — and pop only the
// second Run's outcomes, so both BFS results equal the fault-free ones.
func TestRecoveryInSecondRun(t *testing.T) {
	g := graph.GenErdosRenyi(120, 500, 3)
	tr := &countingTransport{Mem: comm.NewMem(2)}
	if _, _, err := runBFSChecked(mustEngine(t, g, Config{Workers: 2, Transport: tr}), 0); err != nil {
		t.Fatal(err)
	}
	// Round addresses count the rounds before them, so this is the second
	// round of the second Run.
	crash := tr.rounds.Load() + 1
	e := mustEngine(t, g, Config{
		Workers:         2,
		CheckpointEvery: 4,
		FaultPlan:       &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 1, Round: crash}}},
	})
	var res RunResult
	for _, root := range []graph.VID{0, 7} {
		got, r, err := runBFSChecked(e, root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		checkBFS(t, got, seqBFS(g, root), fmt.Sprintf("run from root %d", root))
		res = r
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1: the crash did not land in the second Run", res.Recoveries)
	}
}

// TestRecoveryPopsDriverGet reads a vertex with Get between supersteps and
// crashes a worker several checkpoints later: the re-run must pop the logged
// value, not read the restored (later) state.
func TestRecoveryPopsDriverGet(t *testing.T) {
	e := mustEngine(t, graph.GenPath(40), Config{
		Workers:         2,
		CheckpointEvery: 1,
		FaultPlan:       &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 1, Round: 6}}},
	})
	var seen [2]int32
	res, err := e.Run(func() error {
		e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: int32(v.ID)} }, StepOpts{})
		first := e.Get(3).Dis
		for i := 0; i < 8; i++ {
			e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: v.Val.Dis + 1} }, StepOpts{})
		}
		seen = [2]int32{first, e.Get(3).Dis}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", res.Recoveries)
	}
	if seen != [2]int32{3, 11} {
		t.Fatalf("Get saw %v, want [3 11]", seen)
	}
}

// failingStore saves like a MemStore until its failAt'th Save, which fails.
type failingStore struct {
	MemStore
	saves, failAt int
}

var errStoreFull = errors.New("store full")

func (s *failingStore) Save(img *CheckpointImage) error {
	if s.saves++; s.saves == s.failAt {
		return errStoreFull
	}
	return s.MemStore.Save(img)
}

// TestCheckpointSaveFailureIsTerminal: a store that will not save fails the
// Run with the store's error; re-running the program would only meet the
// same store again, so no recovery is spent on it.
func TestCheckpointSaveFailureIsTerminal(t *testing.T) {
	e := mustEngine(t, graph.GenPath(40), Config{Workers: 2, CheckpointEvery: 1, Store: &failingStore{failAt: 2}})
	_, res, err := runBFSChecked(e, 0)
	if !errors.Is(err, errStoreFull) {
		t.Fatalf("err=%v, want the store's error", err)
	}
	if res.Recoveries != 0 {
		t.Fatalf("recoveries=%d, want 0", res.Recoveries)
	}
	if !errors.Is(e.Err(), errStoreFull) {
		t.Fatalf("engine not failed: Err()=%v", e.Err())
	}
}

// TestRunDropsOutcomeLog recovers a Run whose program stops early on the
// re-run, leaving logged outcomes unpopped. Once Run returns, the log is
// gone: a Set lands and a Get or Sum reads live state.
func TestRunDropsOutcomeLog(t *testing.T) {
	e := mustEngine(t, graph.GenPath(40), Config{
		Workers:         2,
		CheckpointEvery: 1,
		FaultPlan:       &comm.FaultPlan{Crashes: []comm.WorkerCrash{{Worker: 1, Round: 6}}},
	})
	calls := 0
	res, err := e.Run(func() error {
		if calls++; calls == 2 {
			return nil
		}
		e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: 1} }, StepOpts{})
		if sum := Sum(e, func(_ graph.VID, val *bfsProps) int64 { return int64(val.Dis) }); sum != 40 {
			t.Errorf("sum=%d, want 40", sum)
		}
		if rec := e.log[len(e.log)-1]; rec.kind != logKindSum || len(rec.payload) != 8 {
			t.Errorf("Sum logged kind %d with %d bytes, want its 8-byte sum", rec.kind, len(rec.payload))
		}
		for i := 0; i < 8; i++ {
			e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: v.Val.Dis + 1} }, StepOpts{})
		}
		return nil
	})
	if err != nil || res.Recoveries != 1 {
		t.Fatalf("err=%v recoveries=%d, want nil/1", err, res.Recoveries)
	}
	e.Set(3, bfsProps{Dis: 100})
	if got := e.Get(3).Dis; got != 100 {
		t.Fatalf("Get(3)=%d after Set, want 100", got)
	}
	// The state is the restored image's: every vertex but 3 holds one value.
	want := 100 + 39*int64(e.Get(0).Dis)
	if sum := Sum(e, func(_ graph.VID, val *bfsProps) int64 { return int64(val.Dis) }); sum != want {
		t.Fatalf("sum=%d, want %d", sum, want)
	}
}
