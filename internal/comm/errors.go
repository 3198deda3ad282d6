package comm

import (
	"errors"
	"fmt"
)

// The error taxonomy of the transport layer. Transports never panic on wire
// conditions: every runtime failure is returned (or delivered through Drain)
// as one of the errors below so the engine can recover from a checkpoint or
// abort the run cleanly.
var (
	// ErrPeerStalled reports that Drain waited longer than the configured
	// drain timeout for the next frame of the current round: a peer worker is
	// hung or gone (or an injected stall outlived the timeout).
	ErrPeerStalled = errors.New("comm: peer stalled (no frame within drain timeout)")

	// ErrAborted is delivered to workers blocked in transport calls when the
	// round is aborted (another worker failed first). It marks a *secondary*
	// failure: the root cause is the error that triggered the abort.
	ErrAborted = errors.New("comm: round aborted")

	// ErrConnDropped marks a send failure on a broken connection. Nothing
	// redials it: the round fails and recovery replays it on a fresh mesh.
	ErrConnDropped = errors.New("comm: connection dropped")

	// ErrFrameTooLarge reports a frame whose length prefix exceeds
	// MaxFrameSize; the connection is treated as corrupt.
	ErrFrameTooLarge = errors.New("comm: frame length exceeds MaxFrameSize")

	// ErrTruncated reports a connection torn down in the middle of a frame
	// (as opposed to a clean close at a frame boundary).
	ErrTruncated = errors.New("comm: connection closed mid-frame")

	// ErrCorrupt reports a frame that failed an integrity check: a CRC
	// mismatch on the TCP wire, or a payload that no longer decodes (injected
	// bit flips, torn writes). Corruption is a round failure, never a panic.
	ErrCorrupt = errors.New("comm: corrupt frame")
)

// WorkerError attributes a transport failure to one worker.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string { return fmt.Sprintf("comm: worker %d: %v", e.Worker, e.Err) }
func (e *WorkerError) Unwrap() error { return e.Err }

// HandshakeError rejects a connection whose hello frame failed validation:
// unparseable bytes (a hostile or confused client), an out-of-range worker
// id, or a stale membership epoch (a process from a previous incarnation of
// the cluster dialing a respawned mesh). The socket is closed at handshake
// time, before the peer can inject frames into a live round.
type HandshakeError struct {
	Worker int    // claimed worker id, -1 when the hello did not parse
	Epoch  uint32 // claimed epoch, 0 when the hello did not parse
	Reason string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("comm: handshake rejected (worker %d, epoch %d): %s", e.Worker, e.Epoch, e.Reason)
}

// CrashError is surfaced by the Faulty transport when an injected worker
// failure fires. It is recoverable: rolling back to a checkpoint and replaying
// succeeds because injected crashes are one-shot.
type CrashError struct{ Worker int }

func (e *CrashError) Error() string {
	return fmt.Sprintf("comm: injected crash of worker %d", e.Worker)
}

// KillError is returned to a hard-killed worker's own transport calls: after
// a KillWorker fault fires, the victim is permanently dead — its mailbox is
// poisoned and every Send/EndRound/Drain it attempts fails with
// this error until the next Resize. Unlike CrashError it models a process
// loss, not a transient hiccup: the worker's in-memory state is gone and only
// a fresh incarnation restored from a stored checkpoint brings it back.
type KillError struct{ Worker int }

func (e *KillError) Error() string {
	return fmt.Sprintf("comm: worker %d killed (permanent loss)", e.Worker)
}

// EndpointCloser is implemented by transports that can tear down one
// worker's receive endpoint for real (hard-kill support): pending and future
// receives on that worker fail with err until the next Resize replaces the
// mailbox.
type EndpointCloser interface {
	CloseEndpoint(w int, err error)
}
