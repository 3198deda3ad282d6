package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameSize bounds the payload length accepted off the wire. A corrupt
// 4-byte length prefix must not drive frame allocation to 4 GiB (mirrors the
// codec's fuzz hardening); anything larger than this is treated as a corrupt
// connection.
const MaxFrameSize = 1 << 26 // 64 MiB

// dialFunc matches net.Dial. Each transport carries its own dialer so tests
// can inject dial failures per instance without racing other transports.
type dialFunc func(network, addr string) (net.Conn, error)

// defaultDial is the production dialer.
var defaultDial dialFunc = net.Dial

// castagnoli is the CRC32-C table used for frame integrity (same polynomial
// iSCSI and ext4 use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TCP wire frame flags; any other flag is a corrupt frame.
const (
	tcpFlagData     = 0 // data frame: payload follows
	tcpFlagEndRound = 1 // end-of-round marker (no payload)
)

// tcpHdrSize is the frame header length:
// round u32 | epoch u32 | flag u8 | length u32 | crc32c u32.
// The CRC covers the first 13 header bytes plus the payload, so a corrupted
// length, flag, round, epoch or body all surface as ErrCorrupt instead of a
// misparse.
const tcpHdrSize = 17

// Handshake frame ("hello"): the first bytes written on every new socket,
// identifying the dialer and its membership epoch before any data frame.
//
//	magic "FLSH" | version u8 | worker u32 | epoch u32 | crc32c u32
//
// The CRC covers the first 13 bytes. A peer whose hello fails to parse, names
// an out-of-range worker, or carries a stale epoch (a process from a previous
// incarnation of the cluster) is rejected with a *HandshakeError and its
// socket closed — it can never poison a live round.
const (
	helloMagic   = "FLSH"
	helloVersion = 4 // 4: range placement cut on in-edges, not vertex count
	helloSize    = 17
)

// EncodeHello builds the handshake frame a dialer writes first on a new
// socket.
func EncodeHello(worker int, epoch uint32) []byte {
	b := make([]byte, helloSize)
	copy(b[0:4], helloMagic)
	b[4] = helloVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(worker))
	binary.LittleEndian.PutUint32(b[9:13], epoch)
	binary.LittleEndian.PutUint32(b[13:17], crc32.Checksum(b[:13], castagnoli))
	return b
}

// ParseHello validates a handshake frame and extracts the claimed worker id
// and epoch. Errors are *HandshakeError; the caller still owns range and
// epoch admission checks (ParseHello does not know the mesh size).
func ParseHello(b []byte) (worker int, epoch uint32, err error) {
	if len(b) != helloSize {
		return -1, 0, &HandshakeError{Worker: -1, Reason: fmt.Sprintf("short hello: %d bytes", len(b))}
	}
	if string(b[0:4]) != helloMagic {
		return -1, 0, &HandshakeError{Worker: -1, Reason: fmt.Sprintf("bad magic %q", b[0:4])}
	}
	if b[4] != helloVersion {
		return -1, 0, &HandshakeError{Worker: -1, Reason: fmt.Sprintf("unsupported handshake version %d", b[4])}
	}
	if got, want := crc32.Checksum(b[:13], castagnoli), binary.LittleEndian.Uint32(b[13:17]); got != want {
		return -1, 0, &HandshakeError{Worker: -1, Reason: "hello crc mismatch"}
	}
	w := binary.LittleEndian.Uint32(b[5:9])
	e := binary.LittleEndian.Uint32(b[9:13])
	if w > 1<<20 {
		return -1, 0, &HandshakeError{Worker: -1, Epoch: e, Reason: fmt.Sprintf("implausible worker id %d", w)}
	}
	return int(w), e, nil
}

// TCP is a socket transport: every worker pair is connected with a real TCP
// connection and frames are length-prefixed on the wire. In the default
// in-process mode it builds a full loopback mesh (the closest in-process
// analog of the paper's MPI runtime); in cluster mode (ListenTCPCluster) the
// transport is one endpoint of a cross-process mesh, owning only its resident
// worker's sockets.
//
// Wire format per frame: round uint32 | epoch uint32 | flag byte (0 data,
// 1 end-of-round) | length uint32 | crc32c uint32 | payload.
// The sender id is implicit per connection (established by the hello
// handshake); the CRC32-C spans the first 13 header bytes and the payload.
//
// Robustness: there is no redial and no retry. A failed write fails the
// round with ErrConnDropped, because frames still buffered on a dead socket
// are gone and a repaired link would finish the round without them; the
// engine's recovery (a fresh mesh through Resize, or a cluster restart)
// replays the round instead. Read-side violations (oversized length prefix,
// mid-frame truncation) poison the receiving worker's mailbox, so its next
// Drain reports the corrupt connection instead of deadlocking, and are also
// published on Err for diagnosis.
type TCP struct {
	m     int
	self  int  // resident worker in cluster mode; -1 = in-process full mesh
	hub   *Mem // mailboxes, stash and drain logic are shared with Mem
	conns [][]*tcpConn
	lns   []net.Listener

	// dial is this transport's dialer; tests swap it (SetDial) to inject
	// dial failures.
	dial dialFunc

	// helloEpoch is stamped into outgoing hellos and required of incoming
	// ones. It tracks the hub's membership epoch: Resize advances it, and a
	// cluster endpoint pins it to the coordinator-assigned epoch,
	// so sockets from a previous incarnation are rejected at handshake.
	helloEpoch atomic.Uint32

	// meshPeers receives the ids of peers whose sockets were accepted during
	// cluster mesh formation (ConnectPeers is the consumer).
	meshPeers chan int

	errs      chan error
	setupDone atomic.Bool
	closed    atomic.Bool

	// ioWG tracks the current mesh's accept loops, handshake goroutines and
	// read loops. Resize joins them all after closing the old sockets, so no
	// stale goroutine can touch the hub while it is being reconfigured for a
	// different worker count.
	ioWG sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	w  *bufio.Writer
}

func (tc *tcpConn) writeFrame(round, epoch uint32, flag byte, data []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.c == nil {
		return ErrConnDropped
	}
	var hdr [tcpHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], round)
	binary.LittleEndian.PutUint32(hdr[4:8], epoch)
	hdr[8] = flag
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(data)))
	crc := crc32.Checksum(hdr[:13], castagnoli)
	crc = crc32.Update(crc, castagnoli, data)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	if _, err := tc.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := tc.w.Write(data); err != nil {
		return err
	}
	if flag != tcpFlagData {
		return tc.w.Flush() // round boundaries always flush
	}
	return nil
}

// replace installs a new socket, closing the previous one.
func (tc *tcpConn) replace(c net.Conn) {
	tc.mu.Lock()
	if tc.c != nil {
		tc.c.Close()
	}
	tc.c = c
	tc.w = bufio.NewWriterSize(c, 1<<16)
	tc.mu.Unlock()
}

// drop closes the current socket without installing a replacement; the next
// write fails with ErrConnDropped.
func (tc *tcpConn) drop() {
	tc.mu.Lock()
	if tc.c != nil {
		tc.c.Close()
		tc.c = nil
	}
	tc.mu.Unlock()
}

// dropIf drops the socket only if c is still the installed one. The read
// loop calls this on exit: once the receive side of a socket has died, the
// write side must fail fast too — the first write after a peer's FIN lands
// in the kernel buffer without an error, which would silently lose a round
// marker instead of failing the round.
func (tc *tcpConn) dropIf(c net.Conn) {
	tc.mu.Lock()
	if tc.c == c {
		tc.c.Close()
		tc.c = nil
	}
	tc.mu.Unlock()
}

// NewTCP builds a full mesh of loopback connections among m workers. A
// failed dial fails fast: the listeners are closed so the accept loops
// cannot block setup, and the error is returned (regression: this used to
// deadlock in wg.Wait).
func NewTCP(m int) (*TCP, error) { return newTCP(m, defaultDial) }

// newTCP is NewTCP with an injectable dialer, so setup-failure tests can
// make the initial mesh dials fail.
func newTCP(m int, d dialFunc) (*TCP, error) {
	t := &TCP{m: m, self: -1, hub: NewMem(m), dial: d, errs: make(chan error, 64)}
	if err := t.setupMesh(); err != nil {
		t.Close()
		return nil, err
	}
	t.setupDone.Store(true)
	return t, nil
}

// SetDial swaps the transport's dialer (test hook for injecting dial
// failures). Call it before ConnectPeers.
func (t *TCP) SetDial(d func(network, addr string) (net.Conn, error)) { t.dial = d }

// hello builds the handshake frame identifying worker me at the current
// epoch. Built at dial time, not cached: Resize bumps the epoch mid-run.
func (t *TCP) hello(me int) []byte {
	return EncodeHello(me, t.helloEpoch.Load())
}

// setupMesh listens, dials and installs the full t.m × t.m loopback mesh.
// Used at construction and after a membership resize; the caller flips
// setupDone once the mesh is live.
func (t *TCP) setupMesh() error {
	m := t.m
	t.helloEpoch.Store(t.hub.epoch.Load())
	t.conns = make([][]*tcpConn, m)
	for i := range t.conns {
		t.conns[i] = make([]*tcpConn, m)
	}
	t.lns = make([]net.Listener, m)
	for i := 0; i < m; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("comm: listen for worker %d: %w", i, err)
		}
		t.lns[i] = ln
	}
	// Pre-allocate the connection slots so the accept and dial paths can
	// install sockets in place.
	for me := 0; me < m; me++ {
		for peer := 0; peer < m; peer++ {
			if peer != me {
				t.conns[me][peer] = &tcpConn{}
			}
		}
	}
	// Accept loops serve mesh setup and exit when their listener is closed.
	accepted := make(chan error, m*m)
	for i := 0; i < m; i++ {
		i := i
		t.ioWG.Add(1)
		go func() {
			defer t.ioWG.Done()
			t.acceptLoop(i, accepted)
		}()
	}
	// Worker j dials workers i < j; one socket serves the pair full-duplex.
	var dialErr error
dial:
	for j := 0; j < m; j++ {
		for i := 0; i < j; i++ {
			c, err := t.dial("tcp", t.lns[i].Addr().String())
			if err != nil {
				dialErr = err
				break dial
			}
			if _, err := c.Write(t.hello(j)); err != nil {
				c.Close()
				dialErr = err
				break dial
			}
			tc := t.conns[j][i]
			tc.replace(c)
			t.startReadLoop(j, i, c)
		}
	}
	if dialErr != nil {
		return fmt.Errorf("comm: tcp mesh setup: %w", dialErr)
	}
	// Wait until every dialed socket has been accepted and installed.
	for k := 0; k < m*(m-1)/2; k++ {
		if err := <-accepted; err != nil {
			return fmt.Errorf("comm: tcp mesh setup: %w", err)
		}
	}
	return nil
}

// startReadLoop launches an ioWG-tracked read loop for the from←peer socket.
func (t *TCP) startReadLoop(me, peer int, c net.Conn) {
	t.ioWG.Add(1)
	go func() {
		defer t.ioWG.Done()
		t.readLoop(me, peer, c)
		if tc := t.conns[me][peer]; tc != nil {
			tc.dropIf(c)
		}
	}()
}

// acceptLoop accepts connections for worker me until the listener closes.
// During setup each install is reported on accepted (full-mesh mode) or
// meshPeers (cluster mode).
func (t *TCP) acceptLoop(me int, accepted chan<- error) {
	for {
		c, err := t.lns[me].Accept()
		if err != nil {
			if accepted != nil && !t.setupDone.Load() && !t.closed.Load() {
				select {
				case accepted <- err:
				default:
				}
			}
			return
		}
		t.ioWG.Add(1)
		go func() {
			defer t.ioWG.Done()
			t.handshake(me, c, accepted)
		}()
	}
}

// handshake validates an accepted socket's hello and installs it. A socket
// that fails validation is closed and reported; in cluster mode a hostile or
// stale peer never fails mesh formation (ConnectPeers keeps waiting for the
// genuine one), while the in-process full mesh — where only our own dials
// can arrive — fails setup fast.
func (t *TCP) handshake(me int, c net.Conn, accepted chan<- error) {
	var hello [helloSize]byte
	// Bound the hello wait: an accepted socket whose dialer died before
	// identifying itself must not park this goroutine forever (Resize joins
	// the mesh's goroutines before rebuilding).
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		c.Close()
		if accepted != nil && !t.setupDone.Load() {
			select {
			case accepted <- err:
			default:
			}
		}
		return
	}
	c.SetReadDeadline(time.Time{})
	peer, epoch, err := ParseHello(hello[:])
	if err == nil && (peer < 0 || peer >= t.m || peer == me) {
		err = &HandshakeError{Worker: peer, Epoch: epoch, Reason: fmt.Sprintf("worker id out of range (mesh of %d, endpoint %d)", t.m, me)}
	}
	if err == nil {
		if want := t.helloEpoch.Load(); epoch != want {
			err = &HandshakeError{Worker: peer, Epoch: epoch, Reason: fmt.Sprintf("stale epoch %d (current %d)", epoch, want)}
		}
	}
	if err != nil {
		c.Close()
		t.report(fmt.Errorf("comm: worker %d rejected connection: %w", me, err))
		return
	}
	t.conns[me][peer].replace(c)
	t.startReadLoop(me, peer, c)
	if !t.setupDone.Load() {
		if accepted != nil {
			select {
			case accepted <- nil:
			default:
			}
		}
		if t.meshPeers != nil {
			select {
			case t.meshPeers <- peer:
			default:
			}
		}
	}
}

// report publishes a diagnostic on the Err channel without blocking.
func (t *TCP) report(err error) {
	select {
	case t.errs <- err:
	default:
	}
}

// Err exposes connection-level diagnostics (truncation, oversized frames,
// bogus peers). Best effort: the channel is buffered and never blocks the
// data path.
func (t *TCP) Err() <-chan error { return t.errs }

func (t *TCP) readLoop(me, peer int, c net.Conn) {
	r := bufio.NewReaderSize(c, 1<<16)
	var hdr [tcpHdrSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.readClosed(me, peer, err, false)
			return
		}
		round := binary.LittleEndian.Uint32(hdr[0:4])
		epoch := binary.LittleEndian.Uint32(hdr[4:8])
		flag := hdr[8]
		n := binary.LittleEndian.Uint32(hdr[9:13])
		wantCRC := binary.LittleEndian.Uint32(hdr[13:17])
		if n > MaxFrameSize {
			err := &WorkerError{Worker: peer, Err: fmt.Errorf("%w: %d bytes from worker %d", ErrFrameTooLarge, n, peer)}
			t.report(err)
			t.hub.boxes[me].poison(err)
			c.Close()
			return
		}
		var data []byte
		if n > 0 {
			data = GetBufN(int(n)) // recycled by hub.Drain after delivery
			if _, err := io.ReadFull(r, data); err != nil {
				t.readClosed(me, peer, err, true)
				return
			}
		}
		crc := crc32.Checksum(hdr[:13], castagnoli)
		crc = crc32.Update(crc, castagnoli, data)
		bad := ""
		if crc != wantCRC {
			bad = "crc mismatch"
		} else if flag != tcpFlagData && flag != tcpFlagEndRound {
			bad = fmt.Sprintf("unknown flag %d", flag)
		}
		if bad != "" {
			// Integrity failure: fail the receiver's round with a typed
			// ErrCorrupt (checkpoint recovery replays it) and drop the
			// connection, so the sender's next write fails too.
			PutBuf(data)
			err := &WorkerError{Worker: peer, Err: fmt.Errorf("%w: %s on frame from worker %d (round %d)", ErrCorrupt, bad, peer, round)}
			t.report(err)
			t.hub.boxes[me].poison(err)
			c.Close()
			return
		}
		if flag == tcpFlagEndRound {
			data = nil
		} else if data == nil {
			data = []byte{}
		}
		t.hub.boxes[me].push(frame{from: peer, round: round, epoch: epoch, data: data})
	}
}

// readClosed classifies the end of a read loop: a shutdown or a replaced
// socket is silent; a clean close mid-run is reported for diagnosis; a
// mid-frame truncation additionally poisons the receiver's mailbox so the
// torn connection is diagnosable at Drain instead of a silent stall.
func (t *TCP) readClosed(me, peer int, err error, midFrame bool) {
	if t.closed.Load() || errors.Is(err, net.ErrClosed) {
		return
	}
	if midFrame || errors.Is(err, io.ErrUnexpectedEOF) {
		werr := &WorkerError{Worker: peer, Err: fmt.Errorf("%w (from worker %d: %v)", ErrTruncated, peer, err)}
		t.report(werr)
		t.hub.boxes[me].poison(werr)
		return
	}
	t.report(&WorkerError{Worker: peer, Err: fmt.Errorf("comm: connection from worker %d closed between frames: %v", peer, err)})
}

func (t *TCP) Workers() int { return t.m }

func (t *TCP) Send(from, to int, data []byte) error {
	round := t.hub.rounds[from].Load()
	if from == to {
		if err := t.hub.aborted(); err != nil {
			return err
		}
		if data == nil {
			data = []byte{}
		}
		t.hub.boxes[to].push(frame{from: from, round: round, epoch: t.hub.epoch.Load(), data: data})
		return nil
	}
	return t.write(from, to, round, tcpFlagData, data)
}

func (t *TCP) EndRound(from int) error {
	r := t.hub.rounds[from].Load()
	for to := 0; to < t.m; to++ {
		if to == from {
			if err := t.hub.aborted(); err != nil {
				return err
			}
			t.hub.boxes[to].push(frame{from: from, round: r, epoch: t.hub.epoch.Load(), data: nil})
			continue
		}
		if err := t.write(from, to, r, tcpFlagEndRound, nil); err != nil {
			return err
		}
	}
	t.hub.rounds[from].Store(r + 1)
	return nil
}

// CloseEndpoint tears down worker w's receive endpoint (hard-kill support).
func (t *TCP) CloseEndpoint(w int, err error) { t.hub.CloseEndpoint(w, err) }

// write writes one frame on the from→to socket, once. A failed write fails
// the round with ErrConnDropped: whatever was buffered on the socket is lost
// with it, so no redial could complete the round intact. The exception is a
// socket that from's own read loop tore down after poisoning from's mailbox
// (corrupt, oversized or torn frame): the round has already failed there,
// and from's Drain reports that root cause.
func (t *TCP) write(from, to int, round uint32, flag byte, data []byte) error {
	if err := t.hub.aborted(); err != nil {
		return err
	}
	err := t.conns[from][to].writeFrame(round, t.hub.epoch.Load(), flag, data)
	if err == nil || t.hub.boxes[from].failed() != nil {
		return nil
	}
	if !errors.Is(err, ErrConnDropped) {
		err = fmt.Errorf("%w: %w", ErrConnDropped, err)
	}
	return &WorkerError{Worker: from, Err: fmt.Errorf("tcp send %d->%d round %d: %w", from, to, round, err)}
}

func (t *TCP) Drain(to int, h func(from int, data []byte)) error { return t.hub.Drain(to, h) }

func (t *TCP) Abort(err error) { t.hub.Abort(err) }

// Resize tears the current mesh down and rebuilds a full loopback mesh for n
// workers under a fresh membership epoch: joining workers get listeners and
// sockets, departing workers' endpoints are retired with their connections.
// At an unchanged width the rebuild is what guarantees a recovered run a
// clean wire: whatever a failed round left buffered or half-written dies with
// its socket. The caller must have quiesced every worker (no send or drain in
// flight).
func (t *TCP) Resize(n int) error {
	if t.closed.Load() {
		return net.ErrClosed
	}
	if t.self >= 0 {
		return fmt.Errorf("comm: resize unsupported on a cluster endpoint")
	}
	if n < 1 {
		return fmt.Errorf("comm: resize to %d workers", n)
	}
	t.setupDone.Store(false)
	t.teardownMesh()
	if err := t.hub.Resize(n); err != nil {
		return err
	}
	t.m = n
	if err := t.setupMesh(); err != nil {
		// Leave the half-built mesh for Close to reap; the transport is
		// unusable until a successful Resize.
		return err
	}
	t.setupDone.Store(true)
	return nil
}

// teardownMesh closes every listener and socket of the current mesh and
// joins its accept, handshake and read goroutines, so nothing stale can
// touch the hub while it is resized.
func (t *TCP) teardownMesh() {
	for _, ln := range t.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, row := range t.conns {
		for _, tc := range row {
			if tc == nil {
				continue
			}
			tc.drop()
		}
	}
	t.ioWG.Wait()
}

func (t *TCP) SetDrainTimeout(d time.Duration) { t.hub.SetDrainTimeout(d) }

func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, ln := range t.lns {
			if ln != nil {
				if err := ln.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
		for _, row := range t.conns {
			for _, tc := range row {
				if tc == nil {
					continue
				}
				tc.mu.Lock()
				if tc.c != nil {
					if err := tc.c.Close(); err != nil && t.closeErr == nil {
						t.closeErr = err
					}
				}
				tc.mu.Unlock()
			}
		}
	})
	return t.closeErr
}
