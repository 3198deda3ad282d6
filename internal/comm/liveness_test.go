package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"
)

// TestMemSilentPeerIsStalled verifies the drain deadline is the only
// liveness clock: a peer whose end-of-round marker never arrives fails the
// drain with plain ErrPeerStalled, whether it is slow or gone.
func TestMemSilentPeerIsStalled(t *testing.T) {
	tr := NewMem(2)
	defer tr.Close()
	tr.SetDrainTimeout(30 * time.Millisecond)
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Drain(0, func(int, []byte) {}); err != ErrPeerStalled {
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

// TestTCPUnknownFlagIsCorrupt verifies the wire accepts only data and
// end-of-round frames: a CRC-valid frame with any other flag (2 was the
// retired heartbeat) poisons the receiver with a typed ErrCorrupt instead of
// being delivered as data.
func TestTCPUnknownFlagIsCorrupt(t *testing.T) {
	for _, flag := range []byte{2, 7} {
		t.Run(fmt.Sprintf("flag%d", flag), func(t *testing.T) {
			tr, err := NewTCP(2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			c := hostileConn(t, tr, 0, 1)
			defer c.Close()
			payload := []byte("abc")
			hdr := rawHeader(0, 0, flag, uint32(len(payload)))
			crc := crc32.Update(crc32.Checksum(hdr[:13], castagnoli), castagnoli, payload)
			binary.LittleEndian.PutUint32(hdr[13:17], crc)
			frames := append(append(hdr, payload...), rawHeader(0, 0, tcpFlagEndRound, 0)...)
			if _, err := c.Write(frames); err != nil {
				t.Fatal(err)
			}
			if err := tr.EndRound(0); err != nil {
				t.Fatal(err)
			}
			tr.SetDrainTimeout(2 * time.Second)
			drainErr := tr.Drain(0, func(_ int, data []byte) { t.Errorf("delivered %q", data) })
			if !errors.Is(drainErr, ErrCorrupt) {
				t.Fatalf("drain: err=%v, want ErrCorrupt", drainErr)
			}
			var we *WorkerError
			if !errors.As(drainErr, &we) || we.Worker != 1 {
				t.Fatalf("drain: err=%v, want WorkerError naming worker 1", drainErr)
			}
		})
	}
}
