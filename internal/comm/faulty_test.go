package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFaultyDelayReorderDeliversAll(t *testing.T) {
	// With DelayProb 1 every cross-worker frame is held to EndRound and
	// shuffled; the receiver must still see the full round.
	tr := NewFaulty(NewMem(2), FaultPlan{Seed: 7, DelayProb: 1, Reorder: true})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := tr.Send(w, 1-w, []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
			if err := tr.EndRound(w); err != nil {
				t.Errorf("endround: %v", err)
			}
			seen := map[byte]bool{}
			if err := tr.Drain(w, func(from int, data []byte) {
				seen[data[0]] = true
			}); err != nil {
				t.Errorf("drain: %v", err)
			}
			if len(seen) != 5 {
				t.Errorf("worker %d: got %d distinct frames, want 5", w, len(seen))
			}
		}()
	}
	wg.Wait()
	if c := tr.Counts(); c.Delays != 10 {
		t.Fatalf("delays=%d want 10", c.Delays)
	}
}

func TestFaultyStallTriggersDrainTimeout(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{Stalls: []WorkerStall{{Worker: 0, Round: 0, Delay: 300 * time.Millisecond}}})
	tr.SetDrainTimeout(30 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		// Worker 0 stalls inside EndRound; its marker arrives late.
		if err := tr.EndRound(0); err != nil {
			done <- err
			return
		}
		done <- tr.Drain(0, func(int, []byte) {})
	}()
	if err := tr.EndRound(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Drain(1, func(int, []byte) {}); !errors.Is(err, ErrPeerStalled) {
		t.Fatalf("drain during stall: err=%v, want ErrPeerStalled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stalled worker: %v", err)
	}
	if c := tr.Counts(); c.Stalls != 1 {
		t.Fatalf("stalls=%d want 1", c.Stalls)
	}
}

func TestFaultyCrashIsOneShot(t *testing.T) {
	tr := NewFaulty(NewMem(2), FaultPlan{Crashes: []WorkerCrash{{Worker: 0, Round: 0}}})
	err := tr.EndRound(0)
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Worker != 0 {
		t.Fatalf("err=%v, want CrashError{Worker: 0}", err)
	}
	// One-shot: the next round passes.
	if err := tr.EndRound(0); err != nil {
		t.Fatalf("round after crash: %v", err)
	}
}

func TestFaultyDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) FaultCounts {
		tr := NewFaulty(NewMem(2), FaultPlan{Seed: seed, CorruptProb: 0.3, DelayProb: 0.3})
		for r := 0; r < 10; r++ {
			for i := 0; i < 20; i++ {
				tr.Send(0, 1, []byte(fmt.Sprintf("%d", i)))
				tr.Send(1, 0, []byte(fmt.Sprintf("%d", i)))
			}
			tr.EndRound(0)
			tr.EndRound(1)
			tr.Drain(0, func(int, []byte) {})
			tr.Drain(1, func(int, []byte) {})
		}
		return tr.Counts()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Corrupts == 0 || a.Delays == 0 {
		t.Fatalf("seed 42 injected nothing: %+v", a)
	}
}

func TestFaultyExchangeStaysCorrect(t *testing.T) {
	// A full multi-round exchange under delays+reordering must still satisfy
	// the transport contract checked by runRounds.
	tr := NewFaulty(NewMem(3), FaultPlan{Seed: 3, DelayProb: 0.5, Reorder: true})
	runRounds(t, tr, 3, 4)
}
