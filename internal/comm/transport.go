package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Transport moves byte frames between workers in bulk-synchronous rounds.
//
// Protocol: within a round, a worker calls Send any number of times, then
// EndRound exactly once, then Drain exactly once. Drain blocks until the
// end-of-round marker has arrived from every peer (including the worker
// itself) and delivers every data frame of that round, per-sender in send
// order. All workers must execute the same number of rounds.
//
// Frames carry a round number so that a fast worker may run ahead into the
// next round without corrupting a slow receiver's current round (its early
// frames are stashed).
//
// Failure surface: Send, EndRound and Drain return an error instead of
// panicking, and no transport retries: an error from any of them fails the
// round (a broken TCP link surfaces as ErrConnDropped). Abort unblocks every
// worker stuck in a transport call; Resize starts a fresh incarnation — at
// the same worker count so a recovered run can replay from a checkpoint, or
// at another one for a membership change.
//
// Liveness: the drain deadline is the only clock. A peer that is slow and a
// peer that is gone look the same from the outside — no end-of-round marker
// within the drain timeout — and both fail the Drain with ErrPeerStalled.
//
// Epochs: every frame is tagged with the transport's membership epoch, and
// Resize bumps it. Frames from an earlier incarnation that surface later
// (wire buffers, a killed worker's stale sends) are silently discarded by
// Drain instead of corrupting the replayed rounds.
type Transport interface {
	// Workers returns the number of workers m.
	Workers() int
	// Send enqueues a data frame for `to`. The transport takes ownership of
	// data. Safe for concurrent use by threads of the same worker.
	Send(from, to int, data []byte) error
	// EndRound marks `from` as finished sending for its current round.
	EndRound(from int) error
	// Drain delivers all data frames of `to`'s current round and advances
	// the round. h must not retain data beyond the call: delivered frames
	// are recycled into the frame pool (PutBuf) after h returns, so a Send
	// caller must hold no references either — a buffer shipped to several
	// destinations must be cloned per destination. Drain fails with
	// ErrPeerStalled when no frame arrives within the drain timeout, and
	// with the abort error after Abort.
	Drain(to int, h func(from int, data []byte)) error
	// Abort poisons the transport with err: every blocked or future
	// Send/EndRound/Drain returns it until Resize. Safe to call from any
	// goroutine, repeatedly (the first error wins).
	Abort(err error)
	// Resize starts a fresh incarnation at n workers; n may equal Workers().
	// It opens a new membership epoch and clears queued frames, stashes, round
	// counters and any abort error, creating or retiring
	// endpoints to match n. The caller must guarantee no worker is inside a
	// transport call; frames of the old incarnation that surface later are
	// discarded by Drain's epoch check.
	Resize(n int) error
	// SetDrainTimeout bounds how long one Drain waits for the *next* frame
	// before failing with ErrPeerStalled (0 = wait forever).
	SetDrainTimeout(d time.Duration)
	// Close releases transport resources. No calls may follow Close.
	Close() error
}

type frame struct {
	from  int
	round uint32
	epoch uint32 // membership epoch the frame was sent under
	data  []byte // nil means end-of-round marker
}

// mailbox is an unbounded FIFO with blocking receive, per-receive timeout
// and poisoning. There is exactly one consumer per mailbox.
type mailbox struct {
	mu    sync.Mutex
	queue []frame // queue[head:] is pending; emptied, it rewinds to [:0]
	head  int
	err   error
	sig   chan struct{} // capacity 1: "state changed" wakeup

	// timer is the consumer's receive deadline, created on the first
	// blocking wait and re-armed by later ones, so a round allocates none.
	timer *time.Timer
}

func newMailbox() *mailbox {
	return &mailbox{sig: make(chan struct{}, 1)}
}

func (m *mailbox) wake() {
	select {
	case m.sig <- struct{}{}:
	default:
	}
}

func (m *mailbox) push(f frame) {
	m.mu.Lock()
	m.queue = append(m.queue, f)
	m.mu.Unlock()
	m.wake()
}

// poison makes every pending and future pop return err (first error wins).
func (m *mailbox) poison(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.wake()
}

// failed returns the poison error, or nil.
func (m *mailbox) failed() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// pop dequeues the next frame, waiting up to timeout for one to arrive
// (timeout 0 waits forever). Poisoning takes precedence over queued frames.
func (m *mailbox) pop(timeout time.Duration) (frame, error) {
	var timeC <-chan time.Time
	for {
		m.mu.Lock()
		if m.err != nil {
			err := m.err
			m.mu.Unlock()
			if timeC != nil {
				m.stopTimer()
			}
			return frame{}, err
		}
		if m.head < len(m.queue) {
			f := m.queue[m.head]
			m.queue[m.head] = frame{}
			m.head++
			if m.head == len(m.queue) {
				m.queue, m.head = m.queue[:0], 0
			}
			m.mu.Unlock()
			if timeC != nil {
				m.stopTimer()
			}
			return f, nil
		}
		m.mu.Unlock()
		if timeC == nil && timeout > 0 {
			if m.timer == nil {
				m.timer = time.NewTimer(timeout)
			} else {
				m.timer.Reset(timeout)
			}
			timeC = m.timer.C
		}
		select {
		case <-m.sig:
		case <-timeC: // the tick is consumed, so the timer needs no drain
			return frame{}, ErrPeerStalled
		}
	}
}

// stopTimer disarms the receive deadline. A tick that fired unread is drained
// so the next Reset cannot see it, whichever timer semantics the building
// module selects.
func (m *mailbox) stopTimer() {
	if !m.timer.Stop() {
		select {
		case <-m.timer.C:
		default:
		}
	}
}

// Mem is the default in-process transport: per-worker mailboxes. It models
// the MPI wire with zero copies beyond the frame slices themselves.
type Mem struct {
	m      int
	boxes  []*mailbox
	rounds []atomic.Uint32 // per-sender current round
	recvRd []uint32        // per-receiver current round (single-threaded use)
	stash  [][]frame       // per-receiver frames for future rounds

	timeout atomic.Int64  // drain stall timeout in nanoseconds; 0 = forever
	epoch   atomic.Uint32 // membership epoch; bumped by Resize

	abortMu  sync.Mutex
	abortErr error
}

// NewMem creates an in-memory transport for m workers.
func NewMem(m int) *Mem {
	t := &Mem{
		m:      m,
		boxes:  make([]*mailbox, m),
		rounds: make([]atomic.Uint32, m),
		recvRd: make([]uint32, m),
		stash:  make([][]frame, m),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

func (t *Mem) Workers() int { return t.m }

func (t *Mem) aborted() error {
	t.abortMu.Lock()
	defer t.abortMu.Unlock()
	return t.abortErr
}

func (t *Mem) Send(from, to int, data []byte) error {
	if err := t.aborted(); err != nil {
		return err
	}
	if data == nil {
		data = []byte{} // nil is reserved for end-of-round markers
	}
	t.boxes[to].push(frame{from: from, round: t.rounds[from].Load(), epoch: t.epoch.Load(), data: data})
	return nil
}

func (t *Mem) EndRound(from int) error {
	if err := t.aborted(); err != nil {
		return err
	}
	r := t.rounds[from].Load()
	ep := t.epoch.Load()
	for to := 0; to < t.m; to++ {
		t.boxes[to].push(frame{from: from, round: r, epoch: ep, data: nil})
	}
	t.rounds[from].Store(r + 1)
	return nil
}

func (t *Mem) Drain(to int, h func(from int, data []byte)) error {
	if err := t.aborted(); err != nil {
		return err
	}
	r := t.recvRd[to]
	ep := t.epoch.Load()
	pending := t.m // end-of-round markers still expected

	// First serve stashed frames from earlier overruns. Frames from a stale
	// epoch (an earlier incarnation) are discarded, payloads recycled.
	if st := t.stash[to]; len(st) > 0 {
		keep := st[:0]
		for _, f := range st {
			switch {
			case f.epoch != ep:
				PutBuf(f.data)
			case f.round == r:
				if f.data == nil {
					pending--
				} else {
					h(f.from, f.data)
					PutBuf(f.data) // delivered exactly once: recycle
				}
			default:
				keep = append(keep, f)
			}
		}
		t.stash[to] = keep
	}
	timeout := time.Duration(t.timeout.Load())
	for pending > 0 {
		f, err := t.boxes[to].pop(timeout)
		if err != nil {
			return err
		}
		if f.epoch != ep {
			PutBuf(f.data) // stale incarnation: drop
			continue
		}
		if f.round != r {
			t.stash[to] = append(t.stash[to], f)
			continue
		}
		if f.data == nil {
			pending--
		} else {
			h(f.from, f.data)
			PutBuf(f.data)
		}
	}
	t.recvRd[to] = r + 1
	return nil
}

// CloseEndpoint hard-closes worker w's receive endpoint: pending and future
// receives fail with err until Resize replaces the mailbox. This is the
// mem-transport analog of a dead process's sockets going away.
func (t *Mem) CloseEndpoint(w int, err error) {
	t.boxes[w].poison(err)
}

func (t *Mem) Abort(err error) {
	if err == nil {
		err = ErrAborted
	}
	t.abortMu.Lock()
	if t.abortErr == nil {
		t.abortErr = err
	}
	// Poison under abortMu: Abort is the one call allowed to race a
	// concurrent Resize (Engine.Close fires it while a membership change is
	// reconfiguring the mailbox slices), so both serialize on abortMu.
	for _, b := range t.boxes {
		b.poison(err)
	}
	t.abortMu.Unlock()
}

// Resize starts the incarnation of n workers: a fresh membership epoch,
// fresh mailboxes (a hard-closed endpoint comes back), stashes and round
// counters sized for the worker set, and a clean abort slate.
func (t *Mem) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("comm: resize to %d workers", n)
	}
	// The whole reconfiguration runs under abortMu: every other transport
	// call is quiesced by contract, but an asynchronous Abort (Engine.Close)
	// may land mid-resize and must see either the old or the new mailbox set,
	// never a half-swapped one.
	t.abortMu.Lock()
	defer t.abortMu.Unlock()
	t.abortErr = nil
	t.epoch.Add(1)
	t.m = n
	t.boxes = make([]*mailbox, n)
	t.rounds = make([]atomic.Uint32, n)
	t.recvRd = make([]uint32, n)
	t.stash = make([][]frame, n)
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return nil
}

func (t *Mem) SetDrainTimeout(d time.Duration) { t.timeout.Store(int64(d)) }

func (t *Mem) Close() error { return nil }
