package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"flash/graph"
)

// TestCallbackPanicFailsRun drives a panicking user callback — a VertexMap
// M and an EdgeMap F — through both kinds of worker share: worker 0 runs on
// the goroutine that called the step, the last worker on a spawned one. In
// every case Run must return an error that names the worker and carries the
// panic value; the abort must release the peers long before their drain
// deadline; every goroutine the engine started must be gone after Close; and
// the failed engine must refuse to run again.
func TestCallbackPanicFailsRun(t *testing.T) {
	const drain = 2 * time.Second
	g := graph.GenGrid(16, 16, 0, 1)
	for _, tcp := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			victims := map[string]int{"caller": 0}
			if workers > 1 {
				victims["spawned"] = workers - 1
			}
			for share, victim := range victims {
				for _, kind := range []string{"vertexmap-M", "edgemap-F"} {
					name := fmt.Sprintf("tcp=%v/w%d/%s/%s", tcp, workers, share, kind)
					t.Run(name, func(t *testing.T) {
						checkCallbackPanic(t, g, workers, tcp, victim, kind, drain)
					})
				}
			}
		}
	}
}

func checkCallbackPanic(t *testing.T, g *graph.Graph, workers int, tcp bool, victim int, kind string, drain time.Duration) {
	base := runtime.NumGoroutine()
	e, err := NewEngine[bfsProps](g, Config{Workers: workers, UseTCP: tcp, DrainTimeout: drain})
	if err != nil {
		t.Fatal(err)
	}
	target := e.place.GlobalID(victim, 0)
	value := fmt.Sprintf("callback failure at vertex %d", target)
	start := time.Now()
	_, err = e.Run(func() error {
		switch kind {
		case "vertexmap-M":
			e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps {
				if v.ID == target {
					panic(value)
				}
				return *v.Val
			}, StepOpts{})
		case "edgemap-F":
			e.EdgeMapSparse(e.All(), BaseE[bfsProps](),
				Weighted(
					func(s, _ Vtx[bfsProps], _ float32) bool {
						if s.ID == target {
							panic(value)
						}
						return true
					},
					func(s, _ Vtx[bfsProps], _ float32) bfsProps { return bfsProps{Dis: s.Val.Dis + 1} }),
				nil,
				func(t, _ bfsProps) bfsProps { return t }, StepOpts{})
		}
		return nil
	})
	elapsed := time.Since(start)

	var wp *workerPanic
	switch {
	case err == nil:
		t.Fatal("Run returned nil after a callback panicked")
	case !errors.As(err, &wp):
		t.Fatalf("Run error does not carry the panic: %v", err)
	case wp.worker != victim || wp.value != value:
		t.Fatalf("panic recorded for worker %d with value %v, want worker %d with %q", wp.worker, wp.value, victim, value)
	case !strings.Contains(err.Error(), fmt.Sprintf("worker %d", victim)) || !strings.Contains(err.Error(), value):
		t.Fatalf("Run error does not name worker %d and the panic value: %v", victim, err)
	}
	if elapsed > drain/2 {
		t.Errorf("the failed step took %v: peers waited for the %v drain deadline instead of the abort", elapsed, drain)
	}

	called := false
	if _, err := e.Run(func() error { called = true; return nil }); err == nil || called {
		t.Errorf("a failed engine ran again (err %v, program called %v)", err, called)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before NewEngine", n, base)
	}
}
