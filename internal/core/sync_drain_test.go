package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flash/graph"
	"flash/internal/comm"
)

// roundCounter wraps a transport and counts worker 1's EndRound calls.
type roundCounter struct {
	comm.Transport
	rounds atomic.Int32
}

func (r *roundCounter) EndRound(from int) error {
	if from == 1 {
		r.rounds.Add(1)
	}
	return r.Transport.EndRound(from)
}

// syncRounds is a program of VertexMaps over every vertex, each one
// necessary-scope sync round, that leaves every mirror holding a value its
// master reached only in the last round.
func syncRounds(e *Engine[bfsProps], rounds int) []int32 {
	e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: int32(v.ID)} }, StepOpts{})
	for range rounds - 1 {
		e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: v.Val.Dis*3 + 1} }, StepOpts{})
	}
	out := make([]int32, e.Graph().NumVertices())
	e.Gather(func(v graph.VID, val *bfsProps) { out[v] = val.Dis })
	return out
}

// TestSyncDrainStall scripts a stall into a necessary-scope sync round so
// that only the waiting peer's Drain fails: the stalled worker's own Send,
// EndRound and Drain all succeed. Without checkpoints the run must end with
// ErrPeerStalled; with them it must recover to the fault-free result with
// every mirror coherent. A drain that dropped Drain's error would let the
// waiting worker run on a round behind, with stale mirrors and no error.
func TestSyncDrainStall(t *testing.T) {
	const rounds, stallRound = 6, 3
	g := graph.GenRMAT(512, 4096, 3)

	counter := &roundCounter{Transport: comm.NewMem(2)}
	ref := mustEngine(t, g, Config{Workers: 2, Transport: counter})
	var want []int32
	if _, err := ref.Run(func() error { want = syncRounds(ref, rounds); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := counter.rounds.Load(); got != rounds {
		t.Fatalf("program ran %d exchange rounds, want %d (one sync round per VertexMap)", got, rounds)
	}

	for _, ckpt := range []int{0, 2} {
		faulty := comm.NewFaulty(comm.NewMem(2), comm.FaultPlan{
			Stalls: []comm.WorkerStall{{Worker: 1, Round: stallRound, Delay: 400 * time.Millisecond}},
		})
		e := mustEngine(t, g, Config{Workers: 2, Transport: faulty, CheckpointEvery: ckpt, DrainTimeout: 50 * time.Millisecond})
		var got []int32
		res, err := e.Run(func() error { got = syncRounds(e, rounds); return nil })
		if faulty.Counts().Stalls != 1 {
			t.Fatalf("ckpt=%d: the scripted stall did not fire", ckpt)
		}
		if ckpt == 0 {
			if !errors.Is(err, comm.ErrPeerStalled) {
				t.Fatalf("no checkpoints: err=%v, want ErrPeerStalled", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ckpt=%d: %v", ckpt, err)
		}
		if res.Recoveries < 1 {
			t.Fatalf("ckpt=%d: recoveries=%d, want >= 1", ckpt, res.Recoveries)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ckpt=%d: recovered result differs from the fault-free run", ckpt)
		}
		if err := e.CheckMirrorCoherence(func(a, b bfsProps) bool { return a == b }); err != nil {
			t.Fatal(err)
		}
	}
}
