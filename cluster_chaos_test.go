// Cluster chaos soak: real `flashd worker` OS processes in a TCP mesh,
// supervised by a cluster.Coordinator, with SIGKILL-, SIGSTOP- and
// partition-grade faults injected mid-run. The acceptance bar is strict:
// after kill + respawn + resume-from-durable-store, the job's JSON result
// must be byte-identical to an in-process fault-free run of the same
// algorithm at the same worker count.
package flash_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"flash"
	"flash/internal/cluster"
	"flash/internal/serve"
)

var (
	flashdOnce sync.Once
	flashdBin  string
	flashdErr  error
)

// buildFlashd builds the flashd binary once per test process. The chaos
// tests need a real subprocess: an in-process goroutine cannot be SIGKILLed.
func buildFlashd(t *testing.T) string {
	t.Helper()
	flashdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "flashd-chaos-")
		if err != nil {
			flashdErr = err
			return
		}
		flashdBin = filepath.Join(dir, "flashd")
		out, err := exec.Command("go", "build", "-o", flashdBin, "flash/cmd/flashd").CombinedOutput()
		if err != nil {
			flashdErr = fmt.Errorf("build flashd: %v\n%s", err, out)
		}
	})
	if flashdErr != nil {
		t.Fatal(flashdErr)
	}
	return flashdBin
}

// clusterChaosCase is one (algorithm, fault) cell of the chaos matrix.
type clusterChaosCase struct {
	algo   string
	params serve.JobParams
	fault  cluster.FaultKind
}

// clusterChaosGraph is a path graph: BFS, CC and SSSP need ~N supersteps to
// converge on it, so the run is long enough that a fault triggered by the
// victim's second checkpoint is guaranteed to land mid-run, not after the
// finish line.
func clusterChaosGraph() serve.GraphSpec {
	return serve.GraphSpec{Name: "chaos-path", Gen: "path", N: 400, Seed: 23}
}

func intp(v int) *int           { return &v }
func uintp(v uint64) *uint64    { return &v }
func floatp(v float64) *float64 { return &v }

// goldenRun executes the same job in-process, fault-free, on the same
// worker count — the byte-identity reference.
func goldenRun(t *testing.T, spec serve.GraphSpec, algo string, p serve.JobParams, workers int) []byte {
	t.Helper()
	g, err := serve.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := serve.RunAlgo(algo, g, p, flash.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestClusterChaosMatrix is the PR's acceptance test: for each cluster-safe
// algorithm, a two-process fleet is hit mid-run with a process-grade fault —
// SIGKILL for every algorithm, plus SIGSTOP and a network partition on BFS —
// and the completed job's result must equal the in-process golden bytes.
// PageRank uses a fixed iteration budget with eps 0, so the float pipeline is
// deterministic and byte-comparable across process boundaries and resumes.
func TestClusterChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	bin := buildFlashd(t)
	spec := clusterChaosGraph()
	iters := serve.JobParams{MaxIters: intp(25), Eps: floatp(0)}
	cases := []clusterChaosCase{
		{"bfs", serve.JobParams{Root: uintp(0)}, cluster.FaultKill},
		{"cc", serve.JobParams{}, cluster.FaultKill},
		{"pagerank", iters, cluster.FaultKill},
		{"sssp", serve.JobParams{Root: uintp(0)}, cluster.FaultKill},
		{"bfs", serve.JobParams{Root: uintp(0)}, cluster.FaultStall},
		{"bfs", serve.JobParams{Root: uintp(0)}, cluster.FaultPartition},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_%s", tc.algo, tc.fault), func(t *testing.T) {
			gspec := spec
			if tc.algo == "sssp" {
				gspec.Weighted = true
			}
			const workers = 2
			want := goldenRun(t, gspec, tc.algo, tc.params, workers)
			c, err := cluster.New(cluster.Config{
				BinPath: bin, Workers: workers, Graph: gspec, Algo: tc.algo, Params: tc.params,
				StoreDir: t.TempDir(), CheckpointEvery: 2, MaxRestarts: 4,
				Chaos: &cluster.ChaosPlan{Worker: 1, Kind: tc.fault, AwaitSeq: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Run()
			if err != nil {
				t.Fatalf("cluster run under %s: %v", tc.fault, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s under %s: cluster result differs from in-process golden\n got %.160s\nwant %.160s",
					tc.algo, tc.fault, got, want)
			}
			if c.Restarts() < 1 {
				// Every fault must actually have landed mid-run.
				t.Fatalf("%s fault caused %d restarts, want >= 1", tc.fault, c.Restarts())
			}
		})
	}
}

// TestClusterScaleFour runs a fault-free four-process fleet to pin the mesh
// and the replicated-driver determinism above the minimal pair.
func TestClusterScaleFour(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	bin := buildFlashd(t)
	spec := clusterChaosGraph()
	params := serve.JobParams{Root: uintp(0)}
	want := goldenRun(t, spec, "bfs", params, 4)
	c, err := cluster.New(cluster.Config{
		BinPath: bin, Workers: 4, Graph: spec, Algo: "bfs", Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("w4 cluster result differs from in-process golden")
	}
}
