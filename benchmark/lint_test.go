package main

import (
	"testing"

	"flash/internal/lint"
)

// TestFlashvetClean is this module's share of internal/lint's TestSelfCheck.
// The benchmark is a module of its own (the benchmark contract wants a
// compiled benchmark to carry its own build file), so the root module's
// `go test ./...` and self-check do not reach it; this runs the same
// analyzers over it, tests included, and allows no suppression.
func TestFlashvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	pkgs, err := lint.LoadWith(lint.LoadConfig{Tests: true}, ".", "./...")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Error(d)
	}
	for _, d := range lint.AuditSuppressions(pkgs) {
		t.Error(d)
	}
}
