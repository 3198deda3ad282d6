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

// TestTCPBrokenLinkFailsRound breaks worker 0's socket to worker 1 while a
// data frame sits in its write buffer: the frame is gone with the socket, so
// the round must fail with ErrConnDropped rather than complete without it —
// whether the write finds no socket or the socket returns a raw net error.
func TestTCPBrokenLinkFailsRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(*tcpConn)
	}{
		{"dropped", (*tcpConn).drop},
		{"write-side-shut", func(c *tcpConn) {
			c.mu.Lock()
			c.c.(*net.TCPConn).CloseWrite()
			c.mu.Unlock()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTCP(2)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			tr.SetDrainTimeout(10 * time.Second) // safety net: fail, don't hang
			runRounds(t, tr, 2, 1)
			if err := tr.Send(0, 1, []byte("A")); err != nil {
				t.Fatalf("buffered send: %v", err)
			}
			tc.cut(tr.conns[0][1])
			err = tr.Send(0, 1, []byte("B"))
			if err == nil {
				err = tr.EndRound(0) // the flush is what hits a shut socket
			}
			var we *WorkerError
			if !errors.Is(err, ErrConnDropped) || !errors.As(err, &we) || we.Worker != 0 {
				t.Fatalf("round after cut: err=%v, want *WorkerError for worker 0 wrapping ErrConnDropped", err)
			}
		})
	}
}

// TestTCPPoisonedReceiverReportsRootCause: when a worker's own read loop
// tears a socket down over a corrupt frame, the worker's later write on that
// socket does not mask the root cause with ErrConnDropped; its Drain reports
// the ErrCorrupt that failed the round.
func TestTCPPoisonedReceiverReportsRootCause(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := hostileConn(t, tr, 0, 1)
	defer c.Close()
	if _, err := c.Write(append(rawHeader(0, 0, tcpFlagData, 4), 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	waitConn(t, tr.conns[0][1], false)
	if err := tr.EndRound(0); err != nil {
		t.Fatalf("endround on a poisoned receiver: %v", err)
	}
	tr.SetDrainTimeout(2 * time.Second)
	if err := tr.Drain(0, func(int, []byte) {}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("drain: err=%v, want ErrCorrupt", err)
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
