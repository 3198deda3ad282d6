package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"flash/graph"
	"flash/internal/comm"
	"flash/internal/partition"
)

// TestSharedPartitionPointerIdentity pins the engine split's core guarantee:
// two engines borrowing the same SharedGraph at the same configuration hold
// the very same partition object and slot tables — no per-job copy of any
// graph-derived immutable state.
func TestSharedPartitionPointerIdentity(t *testing.T) {
	g := graph.GenRMAT(512, 2048, 11)
	sh := NewSharedGraph(g)
	e1 := mustEngine(t, g, Config{Workers: 4, Shared: sh})
	e2 := mustEngine(t, g, Config{Workers: 4, Shared: sh})
	if e1.part != e2.part {
		t.Fatal("engines at the same configuration do not share the partition")
	}
	for w := range e1.workers {
		if e1.workers[w].st != e2.workers[w].st {
			t.Fatalf("worker %d slot tables are distinct objects", w)
		}
	}
	if sh.Partitions() != 1 {
		t.Fatalf("cache holds %d partitions, want 1", sh.Partitions())
	}
	// A different worker count is a different immutable layout: new cache
	// entry, still shared by later engines asking for it.
	e3 := mustEngine(t, g, Config{Workers: 2, Shared: sh})
	e4 := mustEngine(t, g, Config{Workers: 2, Shared: sh})
	if e3.part == e1.part {
		t.Fatal("w=2 engine reuses the w=4 partition")
	}
	if e3.part != e4.part {
		t.Fatal("w=2 engines do not share their partition")
	}
	if sh.Partitions() != 2 {
		t.Fatalf("cache holds %d partitions, want 2", sh.Partitions())
	}
	if sh.SharedBytes() == 0 {
		t.Fatal("SharedBytes reports zero for a populated cache")
	}
}

// TestSharedPartitionConcurrentBuild races many engines into a cold cache:
// exactly one partition must be built and everyone must share it.
func TestSharedPartitionConcurrentBuild(t *testing.T) {
	g := graph.GenErdosRenyi(256, 1024, 7)
	sh := NewSharedGraph(g)
	const n = 8
	engines := make([]*Engine[bfsProps], n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewEngine[bfsProps](g, Config{Workers: 3, Shared: sh})
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if engines[i] == nil || engines[0] == nil {
			t.Fatal("engine construction failed")
		}
		if engines[i].part != engines[0].part {
			t.Fatalf("engine %d built a private partition despite the shared cache", i)
		}
	}
	for _, e := range engines {
		if e != nil {
			e.Close()
		}
	}
	if sh.Partitions() != 1 {
		t.Fatalf("cache holds %d partitions, want 1", sh.Partitions())
	}
}

// TestSharedEnginesRunIndependently runs BFS concurrently on engines sharing
// one partition and checks results match a private-partition run — shared
// immutable state, fully isolated mutable state.
func TestSharedEnginesRunIndependently(t *testing.T) {
	g := graph.GenRMAT(512, 2048, 13)
	want := seqBFS(g, 0)
	sh := NewSharedGraph(g)
	const jobs = 6
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewEngine[bfsProps](g, Config{Workers: 4, Threads: 2, Shared: sh})
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			got := runBFS(e, 0, Auto)
			for v := range want {
				if got[v] != want[v] {
					t.Errorf("dist[%d]=%d want %d", v, got[v], want[v])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedPartitionSurvivesBorrowerRecovery: an engine borrowing a catalog
// partition recovers from a permanent worker loss while a second engine over
// the same handle keeps running. Recovery swaps in fresh workers over the
// partition it already holds, so the cache is not touched, nothing is copied,
// and both engines still hold the one cached *Partitioned afterwards.
func TestSharedPartitionSurvivesBorrowerRecovery(t *testing.T) {
	g := graph.GenErdosRenyi(128, 512, 5)
	want := seqBFS(g, 0)
	sh := NewSharedGraph(g)
	cfg := coldRestartConfig(t, 3, []comm.WorkerKill{{Worker: 1, Round: 4}})
	cfg.Shared = sh
	victim := mustEngine(t, g, cfg)
	bystander := mustEngine(t, g, Config{Workers: 3, Shared: sh})
	shared := sh.Partition(3, false)
	parts := append([]*partition.Part(nil), shared.Parts...)

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// The bystander reads the shared partition for as long as the victim's
		// recovery runs (the race detector watches the overlap).
		for {
			got := runBFS(bystander, 0, Auto)
			for v := range want {
				if got[v] != want[v] {
					done <- fmt.Errorf("bystander dist[%d]=%d want %d", v, got[v], want[v])
					return
				}
			}
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	got, res, err := runBFSChecked(victim, 0)
	close(stop)
	if berr := <-done; berr != nil {
		t.Fatal(berr)
	}
	if err != nil {
		t.Fatalf("borrower did not survive the kill: %v", err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
	if res.Restarts < 1 || res.Recoveries < 1 {
		t.Fatalf("restarts=%d recoveries=%d, want a recovered worker loss", res.Restarts, res.Recoveries)
	}
	if sh.Partitions() != 1 {
		t.Fatalf("cache holds %d partitions after the recovery, want 1", sh.Partitions())
	}
	if victim.part != shared || bystander.part != shared {
		t.Fatal("an engine no longer holds the cached partition after the recovery")
	}
	for w, p := range shared.Parts {
		if p != parts[w] {
			t.Fatalf("recovery replaced Part %d of the shared partition", w)
		}
	}
}

// TestSharedMismatchedGraph: the handle must wrap the engine's graph.
func TestSharedMismatchedGraph(t *testing.T) {
	g1 := graph.GenPath(10)
	g2 := graph.GenPath(10)
	sh := NewSharedGraph(g1)
	_, err := NewEngine[bfsProps](g2, Config{Workers: 2, Shared: sh})
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ConfigError", err)
	}
	if ce.Field != "Shared" {
		t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, "Shared")
	}
}
