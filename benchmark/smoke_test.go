package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the flashmark binary: the
// harness re-executes itself (one child process per workload, plus the block
// file and reference helpers), and in tests "itself" is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the harness's own
// tables in step: same workloads, same metrics, same units, directions and
// bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, op counts are frozen for %d", bj.RunSeconds, nominalSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %v, harness runs %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, harness has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, harness has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or repeated name %q", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmokeAllWorkloads runs the whole harness at the tiny scale - all five
// workloads, each in its own child process, end-to-end and traced - and
// checks that every (workload, metric) pair BENCHMARK.json lists is emitted
// exactly once, finite and with its unit, and that nothing else is emitted.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ten child processes")
	}
	if runtime.GOMAXPROCS(0) < engineWorkers {
		t.Skip("the harness refuses to measure below two schedulable threads")
	}
	bj := loadBenchmarkJSON(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-scale", "tiny", "-trace", "1", "-seed", "7", "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit code %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}

	units := make(map[string]string)
	for _, m := range bj.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[m.Name] = m.Unit
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	emitted := make(map[string]int) // "workload metric" -> count
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 5 || f[0] != "metric" {
			continue
		}
		workload, name, unit := f[1], f[2], f[4]
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s %s: value %q is not a finite number", workload, name, f[3])
		}
		want, ok := units[name]
		if !ok {
			t.Errorf("%s emits %s, which BENCHMARK.json does not list", workload, name)
		} else if unit != want {
			t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", workload, name, unit, want)
		}
		emitted[workload+" "+name]++
	}
	for _, w := range bj.Workloads {
		for name := range units {
			if n := emitted[w.Name+" "+name]; n != 1 {
				t.Errorf("%s %s emitted %d times, want 1", w.Name, name, n)
			}
		}
	}
	if want := len(bj.Workloads) * len(units); len(emitted) != want {
		t.Errorf("%d (workload, metric) pairs emitted, want %d", len(emitted), want)
	}

	// The last line is the whole set as JSON; it must agree with the lines.
	var set setResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &set); err != nil {
		t.Fatalf("last line is not the set result: %v", err)
	}
	if !set.Correct || set.Failed != 0 || set.Attempted == 0 {
		t.Errorf("set: correct=%v attempted=%d failed=%d", set.Correct, set.Attempted, set.Failed)
	}
	for _, w := range bj.Workloads {
		e2e, layers := set.Workloads[w.Name]["end_to_end"], set.Workloads[w.Name]["per_layer"]
		if len(e2e.Metrics) != len(bj.EndToEnd) || len(layers.Metrics) != len(bj.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics in the result, want %d and %d",
				w.Name, len(e2e.Metrics), len(layers.Metrics), len(bj.EndToEnd), len(bj.PerLayer))
		}
		if v := layers.Metrics["algo.verify_ok_ratio"].Value; v != 1 {
			t.Errorf("%s: algo.verify_ok_ratio = %v, want 1", w.Name, v)
		}
		for _, m := range bj.EndToEnd {
			if e2e.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s %s = %v, end-to-end metrics are never 0", w.Name, m.Name, e2e.Metrics[m.Name].Value)
			}
		}
	}
	// Checkpoints are taken on ckpt-grid and nowhere else.
	for _, w := range bj.Workloads {
		v := set.Workloads[w.Name]["per_layer"].Metrics["core.ckpt_per_op"].Value
		if (w.Name == wCkpt) != (v > 0) {
			t.Errorf("%s: core.ckpt_per_op = %v", w.Name, v)
		}
	}
}

// TestRefusesBelowTwoProcs checks the environment guard: with fewer
// schedulable threads than engine workers no metric is printed at all.
func TestRefusesBelowTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", wSparse, "-scale", "tiny", "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != exitRefused {
		t.Errorf("exit code %d, want %d", code, exitRefused)
	}
	if stdout.Len() != 0 {
		t.Errorf("metrics were printed:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "wall-clock metrics are withheld") {
		t.Errorf("no explicit refusal on stderr: %q", stderr.String())
	}
}
