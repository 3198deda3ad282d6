package cluster

import (
	"errors"
	"fmt"
	"testing"

	"flash/internal/comm"
)

// TestExitForRunError pins the worker's exit classification: a lost peer or
// a broken link is retryable (the coordinator restarts the fleet), anything
// else is a deterministic run error.
func TestExitForRunError(t *testing.T) {
	// engineErr wraps a transport failure the way the engine reports a failed
	// superstep.
	engineErr := func(err error) error {
		return fmt.Errorf("core: worker %d: superstep failed: %w", 1, &comm.WorkerError{Worker: 1, Err: err})
	}
	corrupt := comm.DecodeKV(comm.NewReflectCodec[uint32](), []byte{0x80}, func(uint32, *uint32) {})
	if !errors.Is(corrupt, comm.ErrCorrupt) {
		t.Fatalf("truncated varint decoded as %v, want ErrCorrupt", corrupt)
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"stalled peer", engineErr(comm.ErrPeerStalled), ExitPeerStalled},
		{"dropped link", engineErr(fmt.Errorf("tcp send 1->0 round 3: %w", comm.ErrConnDropped)), ExitPeerStalled},
		{"mid-frame close", engineErr(fmt.Errorf("%w (from worker 0: EOF)", comm.ErrTruncated)), ExitPeerStalled},
		{"corrupt kv frame", engineErr(corrupt), ExitRunError},
		{"oversized frame", engineErr(fmt.Errorf("%w: 1 GiB from worker 0", comm.ErrFrameTooLarge)), ExitRunError},
		{"plain error", errors.New("boom"), ExitRunError},
	}
	for _, tc := range cases {
		if got := exitForRunError(tc.err); got != tc.want {
			t.Errorf("%s: exitForRunError(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
