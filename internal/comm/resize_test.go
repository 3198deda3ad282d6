package comm

import (
	"errors"
	"testing"
)

// TestMemResizeExchange grows and shrinks a Mem transport and verifies the
// full exchange contract holds at every membership size.
func TestMemResizeExchange(t *testing.T) {
	tr := NewMem(2)
	runRounds(t, tr, 2, 2)
	if err := tr.Resize(5); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 5, 2)
	if err := tr.Resize(3); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 3, 2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPResizeExchange does the same over the loopback mesh: old sockets are
// torn down, the mesh is re-dialed at the new size, and rounds keep working.
func TestTCPResizeExchange(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 2, 2)
	if err := tr.Resize(4); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 4, 2)
	if err := tr.Resize(3); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 3, 2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeRejectsNonPositive(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	if err := tr.Resize(0); err == nil {
		t.Fatal("Mem.Resize(0) succeeded")
	}
	tcp, err := NewTCP(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if err := tcp.Resize(0); err == nil {
		t.Fatal("TCP.Resize(0) succeeded")
	}
}

// TestMemResizeClearsAbortPoison: a resize starts a fresh membership epoch,
// so abort poison from the old membership must not leak into it.
func TestMemResizeClearsAbortPoison(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.Abort(errors.New("boom"))
	if err := tr.EndRound(0); err == nil {
		t.Fatal("EndRound after Abort succeeded")
	}
	if err := tr.Resize(3); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 3, 1)
}

// TestFaultyResizeKeepsRoundCounter: the fault round counter runs on across
// Resize (joiners adopt it), so a round-keyed kill addresses a round after a
// membership swap — for a survivor and a joiner. Two rounds ran, so the swap
// restarts everyone at address 3 (one past the lowest counter).
func TestFaultyResizeKeepsRoundCounter(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{Kills: []WorkerKill{{Worker: 1, Round: 4}, {Worker: 2, Round: 4}}})
	defer tr.Close()
	runRounds(t, tr, 2, 2)
	if err := tr.Resize(3); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 3, 1) // round 3: both kills still dormant
	var ke *KillError
	for _, w := range []int{1, 2} {
		if err := tr.EndRound(w); !errors.As(err, &ke) || ke.Worker != w {
			t.Fatalf("worker %d in round 4: err=%v, want KillError", w, err)
		}
	}
	if c := tr.Counts(); c.Kills != 2 {
		t.Fatalf("kills=%d want 2", c.Kills)
	}
}

// TestFaultyResizeSameWidthIsAFreshIncarnation pins what recovery relies on
// when it resizes to the width it already has: a death is cleared, one-shot
// faults stay consumed, and round addresses run on — the failed round's
// address is retired, and a fault scripted for a later round fires at that
// absolute round of the new incarnation.
func TestFaultyResizeSameWidthIsAFreshIncarnation(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{
		Crashes: []WorkerCrash{{Worker: 0, Round: 0}, {Worker: 0, Round: 1}, {Worker: 0, Round: 4}},
		Kills:   []WorkerKill{{Worker: 1, Round: 1}},
	})
	defer tr.Close()
	var ce *CrashError
	var ke *KillError
	if err := tr.Send(0, 1, []byte("x")); !errors.As(err, &ce) {
		t.Fatalf("scripted crash in a send: err=%v", err)
	}
	runRounds(t, tr, 2, 1) // round 0
	// Round 1 fails: worker 0 crashes in it and worker 1 dies in it. Worker 1
	// never completes the round; its counter stays at 1 whatever worker 0 did.
	if err := tr.EndRound(0); !errors.As(err, &ce) {
		t.Fatalf("scripted crash: err=%v", err)
	}
	if err := tr.EndRound(1); !errors.As(err, &ke) {
		t.Fatalf("scripted kill: err=%v", err)
	}
	if err := tr.Drain(1, func(int, []byte) {}); !errors.As(err, &ke) {
		t.Fatalf("drain on dead endpoint: err=%v, want KillError", err)
	}

	if err := tr.Resize(2); err != nil {
		t.Fatal(err)
	}
	// The dead worker is back and nothing consumed re-fires: rounds 2 and 3
	// (the replay) run clean, the edge whose send crashed included.
	runRounds(t, tr, 2, 2)
	if c := tr.Counts(); c.Crashes != 2 || c.Kills != 1 {
		t.Fatalf("after replay: %+v, want two crashes, one kill", c)
	}
	// The crash scripted for round 4 fires in round 4 — the third round of
	// this incarnation, the fifth address of the run — not before.
	if err := tr.EndRound(0); !errors.As(err, &ce) {
		t.Fatalf("round 4: err=%v, want the second scripted crash", err)
	}
}
