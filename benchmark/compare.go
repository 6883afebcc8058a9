package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the first value by
// which the second may be worse.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the relative difference of b against a, and pass/fail: metrics that
// repeat exactly must be equal, the others may be worse by at most
// their bound in BENCHMARK.json. It serves the A/A acceptance check
// (same commit twice) and parent-versus-change.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var bench benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := make(map[string]rule)
	for _, e := range bench.EndToEnd {
		rules[e.Name] = rule{e.Better, e.Bound}
	}
	sameSeed := a.Seed == b.Seed && a.Seconds == b.Seconds
	if !sameSeed {
		fmt.Fprintf(w, "seeds or run lengths differ (%d/%gs vs %d/%gs): exact metrics are held to their bound instead of equality\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-20s %16s %16s %9s  %s\n", "workload", "metric", aPath, bPath, "diff", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			} else if vb != 0 {
				diff = 1
			}
			verdict := "ok"
			r, bounded := rules[d.name]
			switch {
			case d.exact && sameSeed:
				if va != vb {
					verdict = "FAIL (must be equal)"
				}
			case !bounded:
				verdict = "not judged (seeds differ)"
			default:
				worse := diff
				if r.better == "higher" {
					worse = -diff
				}
				if worse > r.bound {
					verdict = fmt.Sprintf("FAIL (worse by more than %g %%)", 100*r.bound)
				}
			}
			if strings.HasPrefix(verdict, "FAIL") {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-20s %16.6g %16.6g %+8.2f%%  %s\n", wl.name, d.name, va, vb, 100*diff, verdict)
		}
	}
	return ok, nil
}
