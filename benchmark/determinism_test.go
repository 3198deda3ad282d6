package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// exactCounts are the layer metrics taken from the program's own public
// counters. A later PR may rest a claim on one of them only because they
// repeat exactly for a fixed seed; this test is what says they do.
var exactCounts = []string{
	"core.supersteps_per_op",
	"comm.bytes_per_op",
	"comm.msgs_per_op",
	"core.ckpt_per_op",
	"core.ckpt_bytes_per_op",
	"graph.cache_hit_ratio",
	"graph.cache_evictions_per_op",
	"graph.blk_bytes_read_per_op",
	"graph.blk_dense_steps_per_op",
	"graph.blk_sparse_steps_per_op",
}

func tracedTiny(t *testing.T, workload, seed string) map[string]contractValue {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", workload, "-scale", "tiny", "-trace", "1", "-seed", seed, "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("%s seed %s: exit code %d\n%s", workload, seed, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s seed %s: %v", workload, seed, err)
	}
	return rep.Metrics
}

// TestExactCountsRepeat runs every workload's traced mode twice with one seed
// and once with another: the counts must be identical across the first two,
// and the byte counts must differ for the other seed, which proves -seed
// reaches the generator and the root pool.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fifteen traced workloads")
	}
	if runtime.GOMAXPROCS(0) < engineWorkers {
		t.Skip("the harness refuses to measure below two schedulable threads")
	}
	for _, workload := range workloadNames {
		a := tracedTiny(t, workload, "11")
		b := tracedTiny(t, workload, "11")
		other := tracedTiny(t, workload, "12")
		for _, name := range exactCounts {
			if a[name].Value != b[name].Value {
				t.Errorf("%s %s: %v then %v with the same seed", workload, name, a[name].Value, b[name].Value)
			}
		}
		if a["core.supersteps_per_op"].Value == 0 || a["comm.bytes_per_op"].Value == 0 {
			t.Errorf("%s: counters are empty: %v supersteps, %v bytes per op",
				workload, a["core.supersteps_per_op"].Value, a["comm.bytes_per_op"].Value)
		}
		if a["comm.bytes_per_op"].Value == other["comm.bytes_per_op"].Value {
			t.Errorf("%s: comm.bytes_per_op = %v for two different seeds", workload, a["comm.bytes_per_op"].Value)
		}
	}
}
