package wlvet

import (
	"strings"
	"testing"

	"wlpm/internal/analysis/analyzertest"
)

// TestAllowNeedsReason: a reason-less allow comment is itself
// diagnosed and suppresses nothing. Checked through raw diagnostics —
// a want comment cannot annotate another comment's line.
func TestAllowNeedsReason(t *testing.T) {
	msgs := analyzertest.Diagnostics(t, "testdata/ctxparam", CtxParam, "badallow")
	if len(msgs) != 2 {
		t.Fatalf("got %d diagnostics %q, want 2 (the reason-less allow and the unsuppressed root context)", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "needs a reason") {
		t.Errorf("first diagnostic = %q, want the needs-a-reason complaint", msgs[0])
	}
	if !strings.Contains(msgs[1], "must not mint context.Background") {
		t.Errorf("second diagnostic = %q, want the root-context diagnostic (allow must not suppress)", msgs[1])
	}
}

func TestTempSweepGolden(t *testing.T) {
	analyzertest.Run(t, "testdata/tempsweep", TempSweep, "tempsweep")
}

func TestGrantReleaseGolden(t *testing.T) {
	analyzertest.Run(t, "testdata/grantrelease", GrantRelease, "grantrelease")
}

func TestCtxParamGolden(t *testing.T) {
	analyzertest.Run(t, "testdata/ctxparam", CtxParam, "ctxparam", "mainpkg")
}

func TestSyncFieldGolden(t *testing.T) {
	analyzertest.Run(t, "testdata/syncfield", SyncField, "syncfield")
}

// TestGeneratedFilesSkipped: generated files are invisible to both the
// analyzers and the allow auditor — the root context and the
// reason-less allow in the generated fixture draw no diagnostics.
func TestGeneratedFilesSkipped(t *testing.T) {
	msgs := analyzertest.Diagnostics(t, "testdata/ctxparam", CtxParam, "generated")
	if len(msgs) != 0 {
		t.Fatalf("got %d diagnostics %q from a generated file, want 0", len(msgs), msgs)
	}
}
