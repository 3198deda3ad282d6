package comm

import (
	"errors"
	"testing"
	"time"
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
// Resize (joiners adopt the barrier's round), so a round-keyed kill addresses
// the round that follows a membership swap — for a survivor and a joiner.
func TestFaultyResizeKeepsRoundCounter(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{Kills: []WorkerKill{{Worker: 1, Round: 3}, {Worker: 2, Round: 3}}})
	defer tr.Close()
	runRounds(t, tr, 2, 2)
	if err := tr.Resize(3); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 3, 1) // round 2: both kills still dormant
	var ke *KillError
	for _, w := range []int{1, 2} {
		if err := tr.EndRound(w); !errors.As(err, &ke) || ke.Worker != w {
			t.Fatalf("worker %d in round 3: err=%v, want KillError", w, err)
		}
	}
	if c := tr.Counts(); c.Kills != 2 {
		t.Fatalf("kills=%d want 2", c.Kills)
	}
}

// TestFaultyResizeGrowsFaultState: after Faulty.Resize the wrapper's
// per-worker state covers the new members and survivors keep their flags.
func TestFaultyResizeGrowsFaultState(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{Kills: []WorkerKill{{Worker: 1, Round: 0}}})
	defer tr.Close()
	var ke *KillError
	if err := tr.Send(1, 0, []byte("x")); !errors.As(err, &ke) {
		t.Fatalf("scripted kill did not fire: %v", err)
	}
	if err := tr.Resize(4); err != nil {
		t.Fatal(err)
	}
	// Worker 1's death survives the resize; new workers are alive.
	if err := tr.Send(1, 0, []byte("x")); !errors.As(err, &ke) {
		t.Fatalf("killed flag lost across resize: %v", err)
	}
	if err := tr.Send(3, 2, []byte("x")); err != nil {
		t.Fatalf("new worker send: %v", err)
	}
	tr.Revive(1)
	tr.Reset()
	runRounds(t, tr, 4, 1)
}

// TestFaultyResizeUnsupportedInner: a wrapped transport without Resize
// support must surface a terminal error, not panic.
func TestFaultyResizeUnsupportedInner(t *testing.T) {
	tr := NewFaulty(fixedTransport{NewMem(2)}, FaultPlan{})
	if err := tr.Resize(3); err == nil {
		t.Fatal("Resize over non-Resizer inner succeeded")
	}
}

// fixedTransport hides Mem's Resize method, modeling a transport that cannot
// change membership.
type fixedTransport struct{ m *Mem }

func (f fixedTransport) Workers() int                                 { return f.m.Workers() }
func (f fixedTransport) Send(from, to int, data []byte) error         { return f.m.Send(from, to, data) }
func (f fixedTransport) EndRound(from int) error                      { return f.m.EndRound(from) }
func (f fixedTransport) Drain(to int, h func(int, []byte)) error      { return f.m.Drain(to, h) }
func (f fixedTransport) Heartbeat(from int) error                     { return f.m.Heartbeat(from) }
func (f fixedTransport) Abort(err error)                              { f.m.Abort(err) }
func (f fixedTransport) Reset()                                       { f.m.Reset() }
func (f fixedTransport) SetDrainTimeout(d time.Duration)              { f.m.SetDrainTimeout(d) }
func (f fixedTransport) Stats() Stats                                 { return f.m.Stats() }
func (f fixedTransport) Close() error                                 { return f.m.Close() }
