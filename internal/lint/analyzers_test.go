package lint_test

import (
	"path/filepath"
	"testing"

	"flash/internal/lint"
	"flash/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestHotAlloc(t *testing.T)   { linttest.Run(t, fixture("hotalloc"), lint.HotAlloc) }
func TestPoolEscape(t *testing.T) { linttest.Run(t, fixture("poolescape"), lint.PoolEscape) }
func TestCommErr(t *testing.T)    { linttest.Run(t, fixture("commerr"), lint.CommErr) }
func TestDetOrder(t *testing.T)   { linttest.Run(t, fixture("detorder"), lint.DetOrder) }
func TestSlotIndex(t *testing.T)  { linttest.Run(t, fixture("slotindex"), lint.SlotIndex) }
func TestSharedMut(t *testing.T)  { linttest.Run(t, fixture("sharedmut"), lint.SharedMut) }
func TestBlockRes(t *testing.T)   { linttest.Run(t, fixture("blockres"), lint.BlockRes) }
func TestPhaseOrder(t *testing.T) { linttest.Run(t, fixture("phaseorder"), lint.PhaseOrder) }

// TestSelfCheck runs every analyzer over the whole module — _test.go files
// included, under the flashdebug build tag so the debug-only code is checked
// too — and audits every suppression marker for a written reason. The
// shipped runtime must be flashvet-clean; this is the same invocation CI's
// lint job performs via cmd/flashvet.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check shells out to go list; skipped in -short")
	}
	for _, cfg := range []lint.LoadConfig{
		{Tests: true},
		{Tests: true, Tags: "flashdebug"},
	} {
		pkgs, err := lint.LoadWith(cfg, "../..", "./...")
		if err != nil {
			t.Fatalf("loading module (tags %q): %v", cfg.Tags, err)
		}
		diags, err := lint.RunAnalyzers(pkgs, lint.All())
		if err != nil {
			t.Fatalf("running analyzers (tags %q): %v", cfg.Tags, err)
		}
		for _, d := range diags {
			t.Errorf("[tags %q] %s", cfg.Tags, d)
		}
		for _, d := range lint.AuditSuppressions(pkgs) {
			t.Errorf("[tags %q] %s", cfg.Tags, d)
		}
	}
}

// TestAuditSuppressions pins the marker audit: reasonless waivers, a typo
// and the retired markers are reported, every marker an analyzer reads is
// not.
func TestAuditSuppressions(t *testing.T) { linttest.RunAudit(t, fixture("markers")) }
