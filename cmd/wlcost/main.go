// Command wlcost explores the analytic cost model without running any
// simulation: each catalog algorithm's price, optimal knob placement, the
// Fig. 2 heatmaps and the Table 1 ledger.
//
// Usage:
//
//	wlcost -t 781250 -m 39062 -lambda 15            # sort prices
//	wlcost -join -t 78125 -v 781250 -m 3906         # join prices
//	wlcost -heatmap -ratio 10 -lambda 5             # one Fig. 2 panel
//	wlcost -ledger -k 8 -lambda 15                  # Table 1
//	wlcost -alloc -stages sort:4000,join:400/4000,sort:40 -m 600
//
// Sizes t, v and memory m are in buffers (cachelines or small multiples),
// the paper's cost unit; costs print in buffer-read units. A sort or join
// row is its algorithm's Profile priced serially at λ — what the planner
// and Explain price that algorithm at when a plan pins it, and what Fig. 12
// ranks.
//
// -alloc runs the engine's budget allocator over a hand-written pipeline
// of blocking stages (comma-separated: sort:t or join:t/v) with m buffers
// of total memory: it bisects each stage's cost curve for the edges of its
// steps and scores their combinations against the even split, which wins
// ties. It prints each stage's cost curve, the even-split and cost-driven
// shares, and both predictions.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"wlpm/internal/cliutil"
	"wlpm/internal/cost"
	"wlpm/internal/exec"
	"wlpm/internal/joins"
	"wlpm/internal/sorts"
)

const cmd = "wlcost"

var shades = []byte(" .:-=+*#%@")

func main() {
	var (
		t       = flag.Float64("t", 781250, "|T| in buffers (the smaller/join-left or sort input)")
		v       = flag.Float64("v", 7812500, "|V| in buffers (join right input)")
		m       = flag.Float64("m", 39062, "memory M in buffers")
		lambda  = flag.Float64("lambda", 15, "write/read cost ratio λ")
		join    = flag.Bool("join", false, "print join prices instead of sort prices")
		heatmap = flag.Bool("heatmap", false, "print a Fig. 2 heatmap panel")
		ratio   = flag.Float64("ratio", 1, "|V|/|T| ratio for -heatmap")
		ledger  = flag.Bool("ledger", false, "print the Table 1 lazy-join ledger")
		k       = flag.Int("k", 8, "iterations for -ledger")
		grants  = flag.Int("sessions", 1, "price at the broker grant m/K of K concurrent sessions instead of all of m")
		alloc   = flag.Bool("alloc", false, "run the budget allocator over -stages with m buffers of total memory")
		stages  = flag.String("stages", "sort:4000,join:400/4000,sort:40", "blocking stages for -alloc: sort:t or join:t/v, comma-separated")
	)
	flag.Parse()

	cliutil.CheckPositiveFloat(cmd, "t", *t)
	cliutil.CheckPositiveFloat(cmd, "v", *v)
	cliutil.CheckPositiveFloat(cmd, "m", *m)
	cliutil.CheckPositiveFloat(cmd, "lambda", *lambda)
	cliutil.CheckPositiveFloat(cmd, "ratio", *ratio)
	cliutil.CheckPositiveInt(cmd, "k", *k)
	cliutil.CheckPositiveInt(cmd, "sessions", *grants)
	if *grants > 1 {
		// The memory broker hands each of K concurrent sessions a 1/K
		// grant of the system budget; prices below describe one such
		// query, which is how the engine's planner actually prices plans
		// under concurrency.
		*m = *m / float64(*grants)
		fmt.Printf("pricing at the per-session grant m=%.0f buffers (system budget split %d ways)\n\n", *m, *grants)
	}

	switch {
	case *alloc:
		printAlloc(*stages, *m, *lambda)
	case *heatmap:
		printHeatmap(*ratio, *lambda)
	case *ledger:
		printLedger(*k, *lambda)
	case *join:
		printJoin(*t, *v, *m, *lambda)
	default:
		printSort(*t, *m, *lambda)
	}
}

// allocStage is one parsed -stages entry.
type allocStage struct {
	kind string // "sort" or "join"
	t, v float64
}

func parseStages(spec string) ([]allocStage, error) {
	var out []allocStage
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, sizes, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("stage %q: want sort:t or join:t/v", part)
		}
		ts, vs, hasV := strings.Cut(sizes, "/")
		t, err := strconv.ParseFloat(ts, 64)
		if err != nil || t <= 0 {
			return nil, fmt.Errorf("stage %q: bad input size %q", part, ts)
		}
		s := allocStage{kind: kind, t: t}
		switch kind {
		case "sort":
			if hasV {
				return nil, fmt.Errorf("stage %q: sort takes one input size", part)
			}
		case "join":
			if !hasV {
				return nil, fmt.Errorf("stage %q: join wants t/v", part)
			}
			if s.v, err = strconv.ParseFloat(vs, 64); err != nil || s.v <= 0 {
				return nil, fmt.Errorf("stage %q: bad probe size %q", part, vs)
			}
		default:
			return nil, fmt.Errorf("stage %q: unknown kind %q (sort|join)", part, kind)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no stages in %q", spec)
	}
	return out, nil
}

// printAlloc runs the engine's step-edge allocator over the spec'd
// pipeline at m total buffers, comparing the even split against the
// cost-driven shares. Shares are computed in buffer units
// (blockSize 1), exactly how the physical planner computes them in
// bytes.
func printAlloc(spec string, m, lambda float64) {
	stages, err := parseStages(spec)
	if err != nil {
		cliutil.Usage(cmd, "-stages: %v", err)
	}
	pricers := make([]func(float64) float64, len(stages))
	for i, s := range stages {
		s := s
		if s.kind == "sort" {
			pricers[i] = func(mm float64) float64 { return cost.BestSortPlanP(s.t, mm, lambda, 1).Cost }
		} else {
			pricers[i] = func(mm float64) float64 { return cost.BestJoinPlanP(s.t, s.v, mm, lambda, 1).Cost }
		}
	}
	total := int64(m)
	a := exec.Allocate(total, 1, pricers)
	even := total / int64(len(stages))
	if even < 2 {
		even = 2
	}
	fmt.Printf("budget allocation: M=%.0f buffers over %d blocking stage(s), λ=%.1f\n\n", m, len(stages), lambda)
	fmt.Printf("  %-3s %-18s %12s %14s %12s %14s\n", "#", "stage", "even m", "even cost", "alloc m", "alloc cost")
	for i, s := range stages {
		name := fmt.Sprintf("%s:%.0f", s.kind, s.t)
		if s.kind == "join" {
			name = fmt.Sprintf("join:%.0f/%.0f", s.t, s.v)
		}
		fmt.Printf("  %-3d %-18s %12d %14.4g %12d %14.4g\n",
			i, name, even, pricers[i](float64(even)), a.Shares[i], pricers[i](float64(a.Shares[i])))
	}
	fmt.Printf("\n  predicted plan cost: even split %.4g, cost-driven %.4g", a.EvenCost, a.Cost)
	switch {
	case a.Even:
		fmt.Printf(" (even split kept: no combination of step edges is priced below it)\n")
	case a.EvenCost > 0:
		fmt.Printf(" (%.1f%% saved)\n", 100*(a.EvenCost-a.Cost)/a.EvenCost)
	default:
		fmt.Println()
	}
	fmt.Printf("\nper-stage cost curves (cheapest implementation as a function of the stage share):\n")
	// Seven geometric points from the two-buffer floor to M.
	hi := math.Max(m, 2)
	ratio := math.Pow(hi/2, 1.0/6)
	for i := range stages {
		fmt.Printf("  stage %d:", i)
		mm := 2.0
		for j := 0; j < 7; j++ {
			if j == 6 {
				mm = hi
			}
			fmt.Printf("  m=%.0f→%.3g", mm, pricers[i](mm))
			mm *= ratio
		}
		fmt.Println()
	}
}

// knobSettings are the settings a row takes per knob count: Fig. 9's
// intensities for one knob, Fig. 2's anti-diagonal for two.
var knobSettings = [][]string{{""}, {":0.2", ":0.5", ":0.8"}, {":0.2:0.8", ":0.5:0.5", ":0.8:0.2"}}

// rows expands a family's DSL spellings ("SegS:<x>") into the catalog
// spellings wlcost prices, every member at its knobSettings.
func rows(spellings []string) []string {
	var out []string
	for _, sp := range spellings {
		name, _, _ := strings.Cut(sp, ":")
		for _, k := range knobSettings[strings.Count(sp, ":")] {
			out = append(out, name+k)
		}
	}
	return out
}

func printSort(t, m, lambda float64) {
	fmt.Printf("sort prices (|T|=%.0f, M=%.0f buffers, λ=%.1f; buffer-read units)\n\n", t, m, lambda)
	for _, sp := range rows(sorts.Spellings()) {
		a, err := sorts.Parse(sp)
		if err != nil {
			cliutil.Fatal(cmd, err)
		}
		fmt.Printf("  %-12s %14.4g\n", sp, a.Profile(cost.Emit{}, t, m, lambda).PriceP(1, lambda, 1))
	}
	fmt.Println()
	x4 := cost.SegmentSortOptimalX(t, m, lambda)
	fmt.Printf("SegS write intensity by Eq. 4: x = %.4f → price %.4g", x4, cost.Emit{}.SegS(x4, t, m).PriceP(1, lambda, 1))
	if !cost.SegmentSortApplicable(t, m, lambda) {
		fmt.Printf(" (model inapplicable: λ ≥ 2(|T|/M)·lnM)")
	}
	fmt.Printf("\nSegS(auto) places it at:       x = %.4f → price %.4g\n", cost.SegSKnob(t, m, lambda, 1, cost.Emit{}),
		sorts.NewAutoSegmentSort().Profile(cost.Emit{}, t, m, lambda).PriceP(1, lambda, 1))
	fmt.Printf("LaS materialization iteration (Eq. 5): n = %d\n",
		cost.LazySortMaterializeIteration(t, m, lambda))
}

func printJoin(t, v, m, lambda float64) {
	fmt.Printf("join prices (|T|=%.0f, |V|=%.0f, M=%.0f buffers, λ=%.1f; buffer-read units)\n\n", t, v, m, lambda)
	for _, sp := range rows(joins.Spellings()) {
		a, err := joins.Parse(sp)
		if err != nil {
			cliutil.Fatal(cmd, err)
		}
		fmt.Printf("  %-16s %14.4g\n", sp, a.Profile(cost.Emit{}, t, v, m, lambda).PriceP(1, lambda, 1))
	}
	fmt.Println()
	kParts := int(cost.HashPartitions(t, m))
	xh, yh := cost.HybridJoinSaddle(t, v, m, lambda)
	price := func(a joins.Algorithm) float64 { return a.Profile(cost.Emit{}, t, v, m, lambda).PriceP(1, lambda, 1) }
	fmt.Printf("HybJ saddle point (Eqs. 7–8): x = %.4f, y = %.4f → price %.4g; min(NLJ, GJ) = %.4g\n", xh, yh,
		price(joins.NewHybridGraceNL(xh, yh)), math.Min(price(joins.NewNestedLoops()), price(joins.NewGrace())))
	fmt.Printf("SegJ beats GJ below x = %.4f of k = %d partitions (Eq. 10)\n",
		cost.SegmentedGraceBeatsGraceBound(kParts, lambda), kParts)
	fmt.Printf("LaJ materialization iteration (λ-consistent Eq. 11): n = %d of k = %d\n",
		cost.LazyHashJoinMaterializeIteration(kParts, lambda), kParts)
}

func printHeatmap(ratio, lambda float64) {
	h := cost.HybridJoinHeatmap(ratio, lambda, 33)
	min, max := h.MinMax()
	fmt.Printf("Jh(x,y) heatmap: |V|/|T| = %.0f, λ = %.1f (lighter = better, range [%.3g, %.3g])\n\n",
		ratio, lambda, min, max)
	for iy := h.N - 1; iy >= 0; iy-- {
		fmt.Printf("  y=%.2f  ", float64(iy)/float64(h.N-1))
		for ix := 0; ix < h.N; ix++ {
			norm := 0.0
			if max > min {
				norm = (h.Cost[iy][ix] - min) / (max - min)
			}
			fmt.Printf("%c", shades[int(norm*float64(len(shades)-1))])
		}
		fmt.Println()
	}
	fmt.Printf("          x: 0 %s 1\n", spaces(h.N-4))
}

func printLedger(k int, lambda float64) {
	fmt.Printf("standard vs lazy hash join (k=%d, λ=%.1f; unit = M+M_T buffers)\n\n", k, lambda)
	fmt.Printf("  %-4s %10s %10s %10s %10s %10s %10s\n",
		"it", "std rd", "std wr", "lazy rd", "lazy wr", "savings", "penalty")
	for _, r := range cost.LazyHashJoinLedger(k, 1, 0, lambda) {
		fmt.Printf("  %-4d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			r.Iteration, r.StandardReads, r.StandardWrites, r.LazyReads, r.LazyWrites, r.Savings, r.Penalty)
	}
	fmt.Printf("\nmaterialize at iteration n = %d (λ-consistent Eq. 11)\n",
		cost.LazyHashJoinMaterializeIteration(k, lambda))
}

func spaces(n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return string(b)
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wlcost [-join|-heatmap|-ledger] [flags]\n")
		flag.PrintDefaults()
	}
}
