package main

import (
	"strings"
	"testing"

	"flash"
	"flash/graph"
	"flash/metrics"
)

func TestRunAlgoAll(t *testing.T) {
	g := graph.GenErdosRenyi(80, 320, 3)
	opts := []flash.Option{flash.WithWorkers(2), flash.WithCollector(metrics.New())}
	for algoName, wantPrefix := range map[string]string{
		"bfs":      "bfs: reached",
		"cc":       "cc: ",
		"ccopt":    "cc-opt: ",
		"bc":       "bc: max dependency",
		"mis":      "mis: ",
		"mm":       "mm: ",
		"mmopt":    "mmopt: ",
		"kc":       "kc: degeneracy",
		"kcopt":    "kcopt: degeneracy",
		"tc":       "tc: ",
		"gc":       "gc: ",
		"scc":      "scc: ",
		"bcc":      "bcc: ",
		"lpa":      "lpa: ",
		"msf":      "msf: ",
		"rc":       "rc: ",
		"cl":       "cl: ",
		"sssp":     "sssp: reached",
		"pagerank": "pagerank: top vertex",
	} {
		summary, err := runAlgo(algoName, g, 0, 3, 3, 1, opts)
		if err != nil {
			t.Fatalf("%s: %v", algoName, err)
		}
		if !strings.HasPrefix(summary, wantPrefix) {
			t.Fatalf("%s: summary %q", algoName, summary)
		}
	}
	if _, err := runAlgo("nope", g, 0, 3, 3, 1, opts); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
