// Command flashvet is the module's invariant checker: a multichecker of the
// custom analyzers in internal/lint (hotalloc and commerr; -list prints
// them), run the way `go vet` would be:
//
//	go run ./cmd/flashvet ./...
//
// It loads the packages matching the given patterns (default ./...) from
// source against compiler export data, builds the module-wide call graph and
// per-function allocation summaries, applies every analyzer, audits every
// //flash: marker, prints one line per finding, and exits non-zero if
// anything was reported.
//
//	-tests  also analyze _test.go files (in-package and external test packages)
//	-tags   comma-separated build tags (e.g. flashdebug) for the load
//	-time   print per-analyzer wall time (the summary engine is "summaries")
//
// Diagnostics can be suppressed at the offending line (or the line above)
// with //flash:allow <analyzer> <reason>. The marker audit reports a waiver
// without a reason, so the waiver argument lives next to the code it
// excuses, and any //flash: marker no analyzer reads, so a misspelt
// //flash:hotpath cannot quietly switch hotalloc off.
package main

import (
	"flag"
	"fmt"
	"os"

	"flash/internal/lint"
)

func main() {
	listOnly := flag.Bool("list", false, "list the registered analyzers and exit")
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	tags := flag.String("tags", "", "comma-separated build tags for the load")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: flashvet [-list] [-tests] [-tags taglist] [-time] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadWith(lint.LoadConfig{Tests: *tests, Tags: *tags}, ".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashvet: %v\n", err)
		os.Exit(2)
	}
	diags, timings, err := lint.RunAnalyzersTimed(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashvet: %v\n", err)
		os.Exit(2)
	}
	diags = append(diags, lint.AuditSuppressions(pkgs)...)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "flashvet: %-12s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flashvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
