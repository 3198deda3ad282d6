// Worker loss and the liveness heartbeat loop.
//
// A lost worker needs no mechanism of its own: its death fails a round, and
// recoverStep answers every failed round the same way — a fresh incarnation of
// all workers (swapMembership), the stored image, replay. What is particular
// to a loss is how it is noticed and counted. Peers learn about the death
// through the liveness layer: each worker runs a background heartbeater, and a
// drain deadline that expires while a peer's heartbeat clock is stale
// classifies the peer as dead (comm.ErrPeerDead) instead of merely stalled.
// killedWorker recognizes that verdict so the recovery counts as a restart
// and backs off.
package core

import (
	"errors"
	"time"

	"flash/internal/comm"
)

// killedWorker extracts the identity of a permanently lost worker from a
// superstep error: either the victim's own comm.KillError (its goroutine
// observed its death directly) or a peer's comm.ErrPeerDead verdict from the
// liveness layer.
func killedWorker(err error) (int, bool) {
	var ke *comm.KillError
	if errors.As(err, &ke) {
		return ke.Worker, true
	}
	var we *comm.WorkerError
	if errors.As(err, &we) && errors.Is(we.Err, comm.ErrPeerDead) {
		return we.Worker, true
	}
	return 0, false
}

// restartBackoffBase is the pause before the second restart of a run.
const restartBackoffBase = 500 * time.Microsecond

// restartBackoff doubles restartBackoffBase with every recovery after the
// second (the first restart is immediate), capped at 100x the base.
func (e *Engine[V]) restartBackoff() time.Duration {
	if e.recoveries <= 1 {
		return 0
	}
	backoff := restartBackoffBase
	for i := 2; i < e.recoveries && backoff < 100*restartBackoffBase; i++ {
		backoff *= 2
	}
	if backoff > 100*restartBackoffBase {
		backoff = 100 * restartBackoffBase
	}
	return backoff
}

// startHeartbeaters launches the incarnation's liveness loops when
// HeartbeatEvery is configured: per worker, a ticker that stamps the worker's
// heartbeat clock on every peer through the transport. A loop exits when
// stopped, or when the transport reports its worker's permanent death
// (KillError — the silence is the signal peers classify as ErrPeerDead).
func (e *Engine[V]) startHeartbeaters() {
	if e.cfg.HeartbeatEvery <= 0 {
		return
	}
	stop := make(chan struct{})
	e.hbStop = stop
	for w := range e.workers {
		if e.resident >= 0 && w != e.resident {
			continue // cluster shell: the owning process heartbeats for it
		}
		e.hbDone.Add(1)
		go func() {
			defer e.hbDone.Done()
			ticker := time.NewTicker(e.cfg.HeartbeatEvery)
			defer ticker.Stop()
			// The first beat goes out before the first tick: arming the peer-side
			// classification clock must not wait an interval, or a worker that
			// dies within it could never be told apart from a stall.
			for {
				var ke *comm.KillError
				if errors.As(e.tr.Heartbeat(w), &ke) {
					return
				}
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
			}
		}()
	}
}

// stopHeartbeaters stops and joins the running heartbeaters, if any.
func (e *Engine[V]) stopHeartbeaters() {
	if e.hbStop == nil {
		return
	}
	close(e.hbStop)
	e.hbDone.Wait()
	e.hbStop = nil
}
