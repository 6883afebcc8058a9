package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests: a few
// thousand records, two memory points.
func tiny() Config {
	return Config{Scale: 0.0005, MemoryPoints: []float64{0.05, 0.10}}
}

func TestExperimentsRegistry(t *testing.T) {
	ids := Experiments()
	want := []string{"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "scaling", "table1", "table2"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry order %v, want %v", ids, want)
		}
	}
	if _, err := Run("fig99", tiny()); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestReportPrint(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"## x — t", "| a | b |", "| 1 | 2 |", "> n"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// Every experiment must run end to end at tiny scale and produce
// non-empty reports. This is the integration test of the whole stack:
// device, backends, algorithms, cost model, harness.
func TestAllExperimentsSmoke(t *testing.T) {
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			reps, err := Run(id, tiny())
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(reps) == 0 {
				t.Fatalf("Run(%s): no reports", id)
			}
			for _, r := range reps {
				if len(r.Rows) == 0 {
					t.Errorf("Run(%s): report %q has no rows", id, r.Title)
				}
				var buf bytes.Buffer
				r.Print(&buf)
				if buf.Len() == 0 {
					t.Errorf("Run(%s): report %q prints nothing", id, r.Title)
				}
			}
		})
	}
}

func TestScaledCardinalities(t *testing.T) {
	cfg := Config{Scale: 0.001}.withDefaults()
	if got := cfg.SortRows(); got != 10000 {
		t.Errorf("SortRows = %d, want 10000", got)
	}
	l, r := cfg.JoinRows()
	if l != 1000 || r != 10000 {
		t.Errorf("JoinRows = %d, %d", l, r)
	}
	if cfg.Backend != "blocked" || cfg.BlockSize != 1024 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}
