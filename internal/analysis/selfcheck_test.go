package wlvet

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot returns the directory of the module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestWlvetSelfCheck runs the full suite over the module itself: the
// tree must stay diagnostic-free (true violations get fixed,
// legitimate exceptions get a reasoned lint:allow).
func TestWlvetSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/wlvet over the whole module")
	}
	cmd := exec.Command("go", "run", "./cmd/wlvet", "./...")
	cmd.Dir = moduleRoot(t)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("wlvet ./... failed: %v\n%s", err, buf.String())
	}
}

// TestWlvetAllowAuditScope: the -json allow audit covers the reported
// packages only. internal/server imports internal/exec, whose batchown
// allows are analyzed for facts but belong to another package.
func TestWlvetAllowAuditScope(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/wlvet")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/wlvet", "-json", "./internal/server")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wlvet -json ./internal/server failed: %v\n%s", err, stderr.String())
	}
	var rep struct {
		Allowed []struct {
			File     string `json:"file"`
			Analyzer string `json:"analyzer"`
		} `json:"allowed"`
		Packages int `json:"packages"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decode wlvet -json: %v\n%s", err, out)
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1", rep.Packages)
	}
	want := filepath.Join(root, "internal", "server", "server.go")
	if len(rep.Allowed) != 2 {
		t.Errorf("allowed = %+v, want server.go's two ctxparam entries", rep.Allowed)
	}
	for _, a := range rep.Allowed {
		if a.File != want || a.Analyzer != "ctxparam" {
			t.Errorf("allowed entry %s (%s) is outside the reported package", a.File, a.Analyzer)
		}
	}
}
