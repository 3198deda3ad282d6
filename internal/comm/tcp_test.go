package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewTCPDialFailureFailsFast is the regression test for the setup
// deadlock: a failed dial used to leave the accept side waiting forever.
// NewTCP must instead return the error promptly with the listeners closed.
func TestNewTCPDialFailureFailsFast(t *testing.T) {
	var calls atomic.Int64
	inject := func(network, addr string) (net.Conn, error) {
		if calls.Add(1) >= 2 {
			return nil, fmt.Errorf("injected dial failure")
		}
		return net.Dial(network, addr)
	}

	type result struct {
		tr  *TCP
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := newTCP(4, inject) // 6 pair dials; the 2nd fails
		done <- result{tr, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			res.tr.Close()
			t.Fatal("NewTCP succeeded despite failing dial")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewTCP deadlocked on dial failure")
	}
}

// hostileConn dials worker me's listener with a valid hello for peer id and
// returns the raw socket for writing hand-crafted frames.
func hostileConn(t *testing.T, tr *TCP, me, peer int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.lns[me].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(EncodeHello(peer, tr.helloEpoch.Load())); err != nil {
		t.Fatal(err)
	}
	return c
}

// rawHeader builds a wire frame header with the CRC field covering only the
// header prefix (valid for frames whose payload never arrives; the length
// check fires before any payload is read, so hostile-length tests don't need
// a matching body CRC).
func rawHeader(round, epoch uint32, flag byte, length uint32) []byte {
	hdr := make([]byte, tcpHdrSize)
	binary.LittleEndian.PutUint32(hdr[0:4], round)
	binary.LittleEndian.PutUint32(hdr[4:8], epoch)
	hdr[8] = flag
	binary.LittleEndian.PutUint32(hdr[9:13], length)
	binary.LittleEndian.PutUint32(hdr[13:17], crc32.Checksum(hdr[:13], castagnoli))
	return hdr
}

// TestTCPOversizedFramePrefix verifies a corrupt length prefix cannot drive
// frame allocation past MaxFrameSize: the connection is rejected and the
// receiver's next Drain reports it instead of the process OOMing or hanging.
func TestTCPOversizedFramePrefix(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := hostileConn(t, tr, 0, 1)
	defer c.Close()
	hdr := rawHeader(0, 0, tcpFlagData, 1<<31) // hostile length
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	tr.SetDrainTimeout(2 * time.Second)
	drainErr := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(drainErr, ErrFrameTooLarge) {
		t.Fatalf("drain: err=%v, want ErrFrameTooLarge", drainErr)
	}
	// The hostile socket displaced worker 1's real one, whose read loop may
	// have reported its clean close first; the oversize diagnostic follows.
	for {
		select {
		case diag := <-tr.Err():
			if errors.Is(diag, ErrFrameTooLarge) {
				return
			}
		default:
			t.Fatal("no ErrFrameTooLarge diagnostic on Err channel")
		}
	}
}

// TestTCPMidFrameTruncation verifies a connection dying mid-frame is
// distinguished from a clean close: the receiver's Drain fails with
// ErrTruncated instead of stalling.
func TestTCPMidFrameTruncation(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := hostileConn(t, tr, 0, 1)
	hdr := rawHeader(0, 0, tcpFlagData, 100) // claim 100 bytes
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 10)); err != nil { // deliver only 10
		t.Fatal(err)
	}
	c.Close()
	tr.SetDrainTimeout(2 * time.Second)
	drainErr := tr.Drain(0, func(int, []byte) {})
	if !errors.Is(drainErr, ErrTruncated) {
		t.Fatalf("drain: err=%v, want ErrTruncated", drainErr)
	}
}

// TestTCPReconnect breaks worker 0's write side of the pair socket and
// verifies the next round completes by redialing.
func TestTCPReconnect(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetDrainTimeout(10 * time.Second) // safety net: fail, don't hang
	runRounds(t, tr, 2, 1)

	// Half-close worker 0's end: its next flush fails deterministically while
	// nothing in flight toward worker 0 can be lost.
	tc := tr.conns[0][1]
	tc.mu.Lock()
	tc.c.(*net.TCPConn).CloseWrite()
	tc.mu.Unlock()
	peer := tr.conns[1][0]
	peer.mu.Lock()
	peerOld := peer.c
	peer.mu.Unlock()

	// Worker 0's end-of-round flush hits the dead write side, retries,
	// redials and succeeds.
	if err := tr.EndRound(0); err != nil {
		t.Fatalf("endround after drop: %v", err)
	}
	// Wait until worker 1's accept loop has installed the fresh socket so its
	// own marker is not written to the stale one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		peer.mu.Lock()
		swapped := peer.c != nil && peer.c != peerOld
		peer.mu.Unlock()
		if swapped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never received the reconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tr.EndRound(1); err != nil {
		t.Fatalf("peer endround: %v", err)
	}
	if err := tr.Drain(0, func(int, []byte) {}); err != nil {
		t.Fatalf("drain after drop: %v", err)
	}
	if err := tr.Drain(1, func(int, []byte) {}); err != nil {
		t.Fatalf("peer drain: %v", err)
	}
	if rc := tr.Stats().Reconnects; rc < 1 {
		t.Fatalf("reconnects=%d, want >=1", rc)
	}
}

// TestTCPDrainTimeoutStall verifies the stall detector: a peer that never
// finishes its round fails the receiver's Drain with ErrPeerStalled instead
// of blocking forever.
func TestTCPDrainTimeoutStall(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.SetDrainTimeout(50 * time.Millisecond)
	if err := tr.EndRound(0); err != nil {
		t.Fatal(err)
	}
	// Worker 1 never sends its end-of-round marker.
	if err := tr.Drain(0, func(int, []byte) {}); !errors.Is(err, ErrPeerStalled) {
		t.Fatalf("drain: err=%v, want ErrPeerStalled", err)
	}
}

// TestAbortUnblocksDrain verifies Abort reaches a worker blocked mid-Drain.
func TestAbortUnblocksDrain(t *testing.T) {
	for _, mk := range []func() Transport{
		func() Transport { return NewMem(2) },
		func() Transport {
			tr, err := NewTCP(2)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	} {
		tr := mk()
		done := make(chan error, 1)
		go func() {
			if err := tr.EndRound(0); err != nil {
				done <- err
				return
			}
			done <- tr.Drain(0, func(int, []byte) {})
		}()
		time.Sleep(20 * time.Millisecond)
		sentinel := errors.New("sentinel abort")
		tr.Abort(sentinel)
		select {
		case err := <-done:
			if !errors.Is(err, sentinel) {
				t.Fatalf("drain after abort: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not unblock Drain")
		}
		tr.Close()
	}
}

// TestMemResizeAfterAbort verifies a same-width Resize restores a poisoned
// transport to a working pristine state (the recovery path depends on this).
func TestMemResizeAfterAbort(t *testing.T) {
	tr := NewMem(2)
	tr.Send(0, 1, []byte("stale"))
	tr.Abort(errors.New("boom"))
	if err := tr.Send(0, 1, []byte("x")); err == nil {
		t.Fatal("send succeeded on aborted transport")
	}
	if err := tr.Resize(2); err != nil {
		t.Fatal(err)
	}
	runRounds(t, tr, 2, 2)
}
