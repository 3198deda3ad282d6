// Command flashmark is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the system sees, and a per-layer trace taken
// from outside the program. BENCHMARK.json at the repository root declares
// its workloads and metrics; README.md in this directory explains them.
//
//	go run . -workload sparse-grid            one workload, end-to-end metrics
//	go run . -workload sparse-grid -trace 1   one workload, per-layer metrics
//	go run .                                  every workload, one child process each
//	go run . -trace 1                         ... followed by each one's traced run
//	go run . -aa                              two full sets, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// childEnv marks a process started by the harness itself. The test binary
// checks it to hand control to realMain instead of the test runner.
const childEnv = "FLASHMARK_CHILD"

// Exit codes.
const (
	exitOK      = 0
	exitFailed  = 1 // an op failed, a result was wrong, or an A/A pair left its bound
	exitUsage   = 2
	exitRefused = 3 // the environment cannot produce meaningful wall-clock numbers
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run in this process (default: every workload, one child process each)")
	seed := fs.Int64("seed", 1, "seed for graphs, root pools and job order")
	seconds := fs.Int("seconds", nominalSeconds, "nominal length of the timed phase; scales the fixed op count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	scale := fs.String("scale", "full", "input scale: full or tiny (smoke tests)")
	aa := fs.Bool("aa", false, "run two full end-to-end sets back to back and compare them against the bounds")
	tmpRoot := fs.String("tmp", "", "directory to create the run's temp dir in (default: the system temp dir)")
	spans := fs.String("spans", "", "file a traced run writes its spans to, one JSON object per line")
	child := fs.String("child", "", "internal: helper-process mode (mkblk, ref)")
	out := fs.String("out", "", "internal: helper-process output path")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "flashmark: %v\n", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(exitUsage, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		return fail(exitUsage, fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		return fail(exitUsage, fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	sz, err := lookupSizing(*scale)
	if err != nil {
		return fail(exitUsage, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(exitFailed, err)
	}
	cfg := runCfg{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: *scale, sz: sz, spans: *spans, exe: exe,
	}

	switch *child {
	case "":
	case "mkblk":
		if err := childMkblk(cfg, *out); err != nil {
			return fail(exitFailed, err)
		}
		return exitOK
	case "ref":
		if err := childRef(cfg, *out); err != nil {
			return fail(exitFailed, err)
		}
		return exitOK
	default:
		return fail(exitUsage, fmt.Errorf("unknown -child mode %q", *child))
	}

	// Wall-clock metrics from fewer schedulable threads than engine workers
	// describe the scheduler, not the program, so none are emitted.
	if procs := runtime.GOMAXPROCS(0); procs < engineWorkers {
		return fail(exitRefused, fmt.Errorf(
			"refusing to measure: GOMAXPROCS=%d is below the %d engine workers every workload runs; wall-clock metrics are withheld",
			procs, engineWorkers))
	}

	switch {
	case *aa && *workload != "":
		return fail(exitUsage, errors.New("-aa compares full sets; it takes no -workload"))
	case *aa:
		return runAA(cfg, *tmpRoot, stdout, stderr)
	case *workload == "":
		return runAll(cfg, *tmpRoot, stdout, stderr)
	}

	// Every file the run creates lives under this one directory.
	if *tmpRoot != "" {
		if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
			return fail(exitFailed, err)
		}
	}
	if cfg.tmp, err = os.MkdirTemp(*tmpRoot, "flashmark-"); err != nil {
		return fail(exitFailed, err)
	}
	defer os.RemoveAll(cfg.tmp)

	w, err := newWorkload(cfg)
	if err != nil {
		return fail(exitUsage, err)
	}
	printEnv(stdout, cfg)
	var res *result
	if cfg.trace {
		res, err = measureLayers(cfg, w, stdout)
	} else {
		res, err = measureEndToEnd(cfg, w)
	}
	if err != nil {
		return fail(exitFailed, fmt.Errorf("%s: %w", cfg.workload, err))
	}
	res.print(stdout)
	if err := res.printContract(stdout); err != nil {
		return fail(exitFailed, err)
	}
	if !res.correct() {
		return fail(exitFailed, fmt.Errorf("%s: %d of %d ops failed", cfg.workload, res.Failed, res.Attempted))
	}
	return exitOK
}

// printEnv records where the numbers were taken.
func printEnv(w io.Writer, cfg runCfg) {
	var un syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&un) == nil {
		var b []byte
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	fmt.Fprintf(w, "env workload=%s seed=%d seconds=%d trace=%d scale=%s nproc=%d gomaxprocs=%d go=%s kernel=%s workers=%d threads=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traceFlag(), cfg.scale,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, engineWorkers, engineThreads)
}

// ---- every workload, one child process each ----

// setResult is one full set: per workload, the end-to-end reply and (with
// -trace 1) the per-layer reply.
type setResult struct {
	Correct   bool                                 `json:"correct"`
	Attempted int                                  `json:"attempted"`
	Failed    int                                  `json:"failed"`
	Workloads map[string]map[string]contractResult `json:"workloads"`
}

// runWorkloadChild runs one workload in a process of its own, so its peak RSS
// and CPU are its own, relays its report and returns its contract line.
func runWorkloadChild(cfg runCfg, name string, trace int, tmpRoot string, stdout, stderr io.Writer) (contractResult, error) {
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(trace), "-scale", cfg.scale,
	}
	if tmpRoot != "" {
		args = append(args, "-tmp", tmpRoot)
	}
	if trace == 1 && cfg.spans != "" {
		ext := filepath.Ext(cfg.spans)
		args = append(args, "-spans", strings.TrimSuffix(cfg.spans, ext)+"-"+name+ext)
	}
	cmd := exec.Command(cfg.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var rep contractResult
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return rep, fmt.Errorf("%s (trace %d): %w", name, trace, runErr)
		}
		return rep, fmt.Errorf("%s (trace %d): no result line: %w", name, trace, err)
	}
	return rep, nil
}

func runSet(cfg runCfg, tmpRoot string, stdout, stderr io.Writer) (setResult, error) {
	set := setResult{Correct: true, Workloads: make(map[string]map[string]contractResult)}
	modes := []int{0}
	if cfg.trace {
		modes = append(modes, 1)
	}
	for _, name := range workloadNames {
		set.Workloads[name] = make(map[string]contractResult)
		for _, trace := range modes {
			rep, err := runWorkloadChild(cfg, name, trace, tmpRoot, stdout, stderr)
			if err != nil {
				return set, err
			}
			key := "end_to_end"
			if trace == 1 {
				key = "per_layer"
			}
			set.Workloads[name][key] = rep
			set.Correct = set.Correct && rep.Correct
			set.Attempted += rep.Attempted
			set.Failed += rep.Failed
		}
	}
	return set, nil
}

func runAll(cfg runCfg, tmpRoot string, stdout, stderr io.Writer) int {
	set, err := runSet(cfg, tmpRoot, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "flashmark: %v\n", err)
		return exitFailed
	}
	b, err := json.Marshal(set)
	if err != nil {
		fmt.Fprintf(stderr, "flashmark: %v\n", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !set.Correct {
		return exitFailed
	}
	return exitOK
}
