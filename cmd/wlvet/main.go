// wlvet runs the engine's static-analysis suite (internal/analysis):
// the wave-1 resource contracts (cancellation polling, temp-sweep
// hygiene, grant release, batch ownership, context threading) and the
// wave-2 concurrency contracts (lock ordering, blocking under locks,
// goroutine lifecycle, field synchronization).
//
//	wlvet ./...            # exit 1 on any diagnostic
//	wlvet -json ./...      # machine-readable findings + allow audit
//
// It has one driver, internal/analysis/driver — the one the analyzers'
// golden tests (analyzertest) run on — which analyzes the module's
// packages in one sequential, in-process pass, dependencies first. It
// is not a go vet plugin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	wlvet "wlpm/internal/analysis"
	"wlpm/internal/analysis/driver"
)

// jsonReport is the -json output: every live finding, plus every
// suppressed one with the reason its //lint:allow comment gave, so
// suppressions stay auditable by the same tooling that consumes
// findings.
type jsonReport struct {
	Diagnostics []jsonDiag  `json:"diagnostics"`
	Allowed     []jsonAllow `json:"allowed"`
	Packages    int         `json:"packages"`
	ElapsedMS   int64       `json:"elapsed_ms"`
}

type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonAllow struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"allow_reason"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := driver.Run(wlvet.All(), patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlvet:", err)
		os.Exit(2)
	}
	// Dependencies are analyzed only for their facts: audit the allows
	// of the reported packages alone, as their diagnostics are.
	reported := make(map[string]bool)
	for _, path := range res.Reported {
		reported[path] = true
	}
	var allowed []wlvet.AllowEntry
	for _, a := range wlvet.TakeAllowLog() {
		if reported[a.Pkg] {
			allowed = append(allowed, a)
		}
	}

	if *jsonOut {
		rep := jsonReport{
			Diagnostics: []jsonDiag{},
			Allowed:     []jsonAllow{},
			Packages:    len(res.Reported),
			ElapsedMS:   res.Elapsed.Milliseconds(),
		}
		for _, d := range res.Diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		for _, a := range allowed {
			rep.Allowed = append(rep.Allowed, jsonAllow{
				File: a.Pos.Filename, Line: a.Pos.Line,
				Analyzer: a.Analyzer, Reason: a.Reason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "wlvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Fprintf(os.Stdout, "%s: %s\n", d.Pos, d.Message)
		}
	}

	fmt.Fprintf(os.Stderr, "wlvet: %d package(s) analyzed (%d total incl. deps) in %v\n",
		len(res.Reported), res.Packages, res.Elapsed.Round(time.Millisecond))
	if n := len(res.Diags); n > 0 {
		fmt.Fprintf(os.Stderr, "wlvet: %d invariant violation(s)\n", n)
		os.Exit(1)
	}
}
