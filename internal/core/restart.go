// Worker loss.
//
// A lost worker needs no mechanism of its own: its death fails a round, and
// recoverStep answers every failed round the same way — a fresh incarnation of
// all workers (swapMembership), the stored image, replay. What is particular
// to a loss is how it is counted. Peers notice the death only as a drain
// deadline that expires (comm.ErrPeerStalled); the victim's own goroutine
// returns its comm.KillError, which parallelWorkers reports as the root cause
// and killedWorker recognizes, so the recovery counts as a restart and backs
// off.
package core

import (
	"errors"
	"time"

	"flash/internal/comm"
)

// killedWorker extracts the identity of a permanently lost worker from a
// superstep error: the victim's own comm.KillError.
func killedWorker(err error) (int, bool) {
	var ke *comm.KillError
	if errors.As(err, &ke) {
		return ke.Worker, true
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
