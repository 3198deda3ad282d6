package comm

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestMemDeadPeerClassification verifies the liveness upgrade: once a peer
// has heartbeat at least once and then gone silent past the drain-timeout
// window, a timed-out Drain names it with ErrPeerDead instead of the generic
// stall.
func TestMemDeadPeerClassification(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.SetDrainTimeout(40 * time.Millisecond)
	if err := tr.Heartbeat(1); err != nil { // arm classification, then fall silent
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	err := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("drain: err=%v, want ErrPeerDead", err)
	}
	var we *WorkerError
	if !errors.As(err, &we) || we.Worker != 1 {
		t.Fatalf("drain: err=%v, want WorkerError naming worker 1", err)
	}
}

// TestMemStalledPeerStillBeating verifies the other side of the
// classification: a peer that misses the round deadline but keeps
// heartbeating is reported as stalled (retry-worthy), never dead.
func TestMemStalledPeerStillBeating(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.SetDrainTimeout(50 * time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				tr.Heartbeat(1)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	err := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(err, ErrPeerStalled) || errors.Is(err, ErrPeerDead) {
		t.Fatalf("drain: err=%v, want plain ErrPeerStalled", err)
	}
}

// TestMemNoHeartbeatKeepsStalled verifies engines that never heartbeat keep
// the pre-liveness behavior: a timeout is always ErrPeerStalled.
func TestMemNoHeartbeatKeepsStalled(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.SetDrainTimeout(30 * time.Millisecond)
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	err := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(err, ErrPeerStalled) || errors.Is(err, ErrPeerDead) {
		t.Fatalf("drain: err=%v, want plain ErrPeerStalled", err)
	}
}

// TestMemEpochDiscardsStaleFrames verifies membership epochs: a frame sent
// under an earlier incarnation that surfaces afterwards is silently dropped
// by Drain instead of being delivered into the replayed round.
func TestMemEpochDiscardsStaleFrames(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	if err := tr.Resize(2); err != nil { // epoch 0 -> 1
		t.Fatal(err)
	}
	// A zombie frame from epoch 0 surfaces late (e.g. a killed worker's
	// buffered send).
	tr.boxes[1].push(frame{from: 0, round: 0, epoch: 0, data: []byte("stale")})
	if err := tr.Send(0, 1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.EndRound(1); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := tr.Drain(1, func(_ int, data []byte) { got = append(got, string(data)) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("delivered %v, want only the fresh frame", got)
	}
}

// TestMemEpochDiscardsStaleStash verifies the stash path discards stale
// epochs too: a stale future-round frame parked in the stash is dropped on
// the next Drain rather than replayed into a post-Reset round.
func TestMemEpochDiscardsStaleStash(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.stash[1] = append(tr.stash[1], frame{from: 0, round: 1, epoch: 99, data: []byte("zombie")})
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.EndRound(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Drain(1, func(int, []byte) { t.Fatal("stale frame delivered") }); err != nil {
		t.Fatal(err)
	}
	if len(tr.stash[1]) != 0 {
		t.Fatalf("stale frame still stashed: %d entries", len(tr.stash[1]))
	}
}

// TestFaultyKillWorker verifies the hard-fault mode end to end on the mem
// transport: the victim's first transport call at the scripted round fails
// with KillError, every later call keeps failing, its receive endpoint is
// poisoned for real, and Revive+Reset restore a working transport.
func TestFaultyKillWorker(t *testing.T) {
	inner := NewMem(2)
	f := NewFaulty(inner, FaultPlan{Kills: []WorkerKill{{Worker: 1, Round: 0}}})
	defer f.Close()

	var ke *KillError
	if err := f.Send(1, 0, []byte("x")); !errors.As(err, &ke) || ke.Worker != 1 {
		t.Fatalf("send: err=%v, want KillError{1}", err)
	}
	if err := f.EndRound(1); !errors.As(err, &ke) {
		t.Fatalf("endround after death: err=%v, want KillError", err)
	}
	if err := f.Heartbeat(1); !errors.As(err, &ke) {
		t.Fatalf("heartbeat after death: err=%v, want KillError", err)
	}
	// The victim's receive endpoint is gone for real, not just flagged.
	if err := f.Drain(1, func(int, []byte) {}); !errors.As(err, &ke) {
		t.Fatalf("drain on dead endpoint: err=%v, want KillError", err)
	}
	if got := f.Counts().Kills; got != 1 {
		t.Fatalf("kills=%d, want 1", got)
	}
	// Survivors are unaffected on their own calls.
	if err := f.Send(0, 1, []byte("y")); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	// A fresh incarnation at the same width brings the victim back.
	if err := f.Resize(2); err != nil {
		t.Fatal(err)
	}
	runRounds(t, f, 2, 2)
}

// TestFaultyCorruptFrame verifies the scripted corrupt-frame mode: the
// delivered payload differs from the sent one by exactly one bit.
func TestFaultyCorruptFrame(t *testing.T) {
	inner := NewMem(2)
	f := NewFaulty(inner, FaultPlan{
		Seed:     7,
		Corrupts: []FrameCorrupt{{From: 0, To: 1, Round: 0}},
	})
	defer f.Close()
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	if err := f.Send(0, 1, append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	if err := f.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if err := f.EndRound(1); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := f.Drain(1, func(_ int, data []byte) { got = append([]byte(nil), data...) }); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("payload not corrupted")
	}
	diff := 0
	for i := range got {
		b := got[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
	if got := f.Counts().Corrupts; got != 1 {
		t.Fatalf("corrupts=%d, want 1", got)
	}
}

// TestTCPCorruptFrameCRC verifies the wire integrity check: a frame whose
// CRC32-C does not match its header+payload poisons the receiver with a
// typed ErrCorrupt instead of a decode panic or a silent misparse.
func TestTCPCorruptFrameCRC(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := hostileConn(t, tr, 0, 1)
	defer c.Close()
	// Header CRC covers only hdr[:13]; appending a non-empty payload makes
	// the receiver's computed checksum disagree.
	hdr := rawHeader(0, 0, tcpFlagData, 4)
	if _, err := c.Write(append(hdr, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	tr.SetDrainTimeout(2 * time.Second)
	drainErr := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(drainErr, ErrCorrupt) {
		t.Fatalf("drain: err=%v, want ErrCorrupt", drainErr)
	}
	var we *WorkerError
	if !errors.As(drainErr, &we) || we.Worker != 1 {
		t.Fatalf("drain: err=%v, want WorkerError naming worker 1", drainErr)
	}
}

// TestTCPHeartbeatReachesPeers verifies heartbeat control frames travel the
// real wire and stamp the shared liveness clock on arrival.
func TestTCPHeartbeatReachesPeers(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !tr.hub.hbOn[1].Load() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never armed worker 1's liveness clock")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPDeadPeerClassification runs the full liveness protocol over real
// sockets: worker 1 heartbeats, dies silently, and worker 0's next drain
// deadline names it dead.
func TestTCPDeadPeerClassification(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetDrainTimeout(60 * time.Millisecond)
	if err := tr.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !tr.hub.hbOn[1].Load() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(80 * time.Millisecond) // silence beyond the window
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	drainErr := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(drainErr, ErrPeerDead) {
		t.Fatalf("drain: err=%v, want ErrPeerDead", drainErr)
	}
}
