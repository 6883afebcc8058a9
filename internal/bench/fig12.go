package bench

import (
	"fmt"
	"strings"

	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
)

// Fig12 regenerates Figure 12: the concordance (Kendall's τ) between the
// cost model's ranking of the algorithms and their true measured ranking,
// as available memory scales. Estimates come from the implementation-
// faithful I/O profiles (cost.Profile) priced with the harness's medium
// constants; the lazy algorithms are excluded exactly as in the paper
// (their decisions are dynamic, not static estimates).
func Fig12(cfg Config) ([]*Report, error) {
	n := cfg.SortRows()
	nLeft, nRight := cfg.JoinRows()
	bs := float64(cfg.BlockSize)
	mems := cfg.MemoryPoints
	if len(mems) == 0 {
		mems = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14}
	}
	// Price profiles in nanoseconds per buffer: device latency plus the
	// engine's CPU charge, per block of cachelines.
	linesPerBuf := bs / 64
	readNs := (float64(cfg.ReadLatency) + float64(cfg.CPUPerLine)) * linesPerBuf
	writeNs := (float64(cfg.WriteLatency) + float64(cfg.CPUPerLine)) * linesPerBuf

	// The candidates, by catalog spelling; each prices itself (Profiled),
	// and none of these profiles depends on λ. The write-limited ones are
	// those with an intensity knob.
	sortCands := []string{"ExMS", "SegS:0.2", "SegS:0.5", "SegS:0.8", "HybS:0.2", "HybS:0.8"}
	joinCands := []string{"GJ", "HJ", "NLJ", "HybJ:0.2:0.8", "HybJ:0.5:0.5", "HybJ:0.8:0.2", "SegJ:0.2", "SegJ:0.5", "SegJ:0.8"}
	lambda := writeNs / readNs

	rep := &Report{
		ID:    "fig12",
		Title: fmt.Sprintf("Concordance between estimated and true performance (Kendall's τ; sort n=%d, join %d⋈%d)", n, nLeft, nRight),
		Columns: []string{
			"memory (% of (left) input)",
			"sorting - all", "join processing - all",
			"sorting - write-limited", "join processing - write-limited",
		},
	}

	for _, mem := range mems {
		tSort := float64(n) * record.Size / bs
		mSort := mem * tSort
		var estS, trueS, estSW, trueSW []float64
		for _, spelling := range sortCands {
			a, err := sorts.Parse(spelling)
			if err != nil {
				return nil, err
			}
			cfg.logf("fig12: sort %s at mem %.1f%%", a.Name(), mem*100)
			m, err := measureSort(cfg, cfg.Backend, a, n, mem)
			if err != nil {
				return nil, err
			}
			est := a.(sorts.Profiled).Profile(cost.Emit{}, tSort, mSort, lambda).PriceP(readNs, writeNs, 1)
			estS = append(estS, est)
			trueS = append(trueS, float64(m.Response))
			if strings.Contains(spelling, ":") {
				estSW = append(estSW, est)
				trueSW = append(trueSW, float64(m.Response))
			}
		}

		tJoin := float64(nLeft) * record.Size / bs
		vJoin := float64(nRight) * record.Size / bs
		mJoin := mem * tJoin
		var estJ, trueJ, estJW, trueJW []float64
		for _, spelling := range joinCands {
			a, err := joins.Parse(spelling)
			if err != nil {
				return nil, err
			}
			cfg.logf("fig12: join %s at mem %.1f%%", a.Name(), mem*100)
			m, err := measureJoin(cfg, cfg.Backend, a, nLeft, nRight, mem)
			if err != nil {
				return nil, err
			}
			est := a.(joins.Profiled).Profile(cost.Emit{}, tJoin, vJoin, mJoin, lambda).PriceP(readNs, writeNs, 1)
			estJ = append(estJ, est)
			trueJ = append(trueJ, float64(m.Response))
			if strings.Contains(spelling, ":") {
				estJW = append(estJW, est)
				trueJW = append(trueJW, float64(m.Response))
			}
		}

		rep.Rows = append(rep.Rows, []string{
			fmtPct(mem),
			fmt.Sprintf("%.3f", cost.KendallTau(estS, trueS)),
			fmt.Sprintf("%.3f", cost.KendallTau(estJ, trueJ)),
			fmt.Sprintf("%.3f", cost.KendallTau(estSW, trueSW)),
			fmt.Sprintf("%.3f", cost.KendallTau(estJW, trueJW)),
		})
	}
	rep.Rows = append(rep.Rows, summaryRow(rep.Rows))
	rep.Notes = append(rep.Notes,
		"Paper shape: concordance ≥ 0.94 throughout; join concordance above sorting; restricting to write-limited algorithms improves both.")
	return []*Report{rep}, nil
}

// summaryRow appends the per-column means of the τ table.
func summaryRow(rows [][]string) []string {
	sums := make([]float64, 4)
	for _, r := range rows {
		for i := 0; i < 4; i++ {
			var v float64
			fmt.Sscanf(r[i+1], "%f", &v)
			sums[i] += v
		}
	}
	out := []string{"mean"}
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%.3f", sums[i]/float64(len(rows))))
	}
	return out
}
