package main

import (
	"fmt"
	"io"
	"math"
)

// runAA measures the same code twice, back to back, and compares every
// (end-to-end metric, workload) pair against the metric's regression bound.
// If two runs of one commit cannot agree within a bound, no later change can
// be judged against it. A pair outside its bound is a finding about the
// machine or the workload's size, never about the program: both sets ran the
// same binary.
func runAA(cfg runCfg, tmpRoot string, stdout, stderr io.Writer) int {
	cfg.trace = false // bounds exist for end-to-end metrics only
	var sets [2]setResult
	for i := range sets {
		fmt.Fprintf(stdout, "aa set %d of %d\n", i+1, len(sets))
		var err error
		if sets[i], err = runSet(cfg, tmpRoot, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "flashmark: %v\n", err)
			return exitFailed
		}
	}

	outside := 0
	fmt.Fprintf(stdout, "\n| workload | metric | unit | set A | set B | rel. diff | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---:|---:|---:|---:|---|\n")
	for _, name := range workloadNames {
		a := sets[0].Workloads[name]["end_to_end"]
		b := sets[1].Workloads[name]["end_to_end"]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			if !(diff <= d.bound) {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %.1f%% | %.0f%% | %s |\n",
				name, d.name, d.unit, va, vb, 100*diff, 100*d.bound, verdict)
		}
		failed := a.Failed + b.Failed
		verdict := "ok"
		if failed > 0 {
			verdict = "OUTSIDE"
			outside++
		}
		fmt.Fprintf(stdout, "| %s | op_fail_ratio | ratio | %d/%d | %d/%d | - | must be 0 | %s |\n",
			name, a.Failed, a.Attempted, b.Failed, b.Attempted, verdict)
	}
	if outside > 0 {
		fmt.Fprintf(stderr, "flashmark: %d (metric, workload) pairs disagree beyond their bound\n", outside)
		return exitFailed
	}
	return exitOK
}
