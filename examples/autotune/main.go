// Autotuning scenario: the paper's cost model (§2) lets an optimizer pick
// the algorithm and knob before running anything. This example estimates
// the I/O profile of every candidate, prices it with the medium's
// latencies, picks the winner, then executes everything and reports how
// well the estimated ranking agreed with reality — the Fig. 12
// methodology, Kendall's τ.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wlpm"
)

const (
	rows      = 120_000
	memFrac   = 0.05
	blockSize = 1024
	lambda    = 15.0
	readNs    = 10.0
	writeNs   = 150.0
)

func main() {
	// Sizes in buffers, like the paper's cost expressions.
	t := float64(rows) * wlpm.RecordSize / blockSize
	m := memFrac * t
	xOpt := wlpm.OptimalSegmentSortIntensity(t, m, lambda)
	fmt.Printf("cost model: SegS response-optimal intensity for |T|=%.0f, M=%.0f buffers → x = %.3f\n\n", t, m, xOpt)

	cands := []struct {
		algo    wlpm.SortAlgorithm
		profile wlpm.IOProfile
	}{
		{wlpm.ExternalMergeSort(), wlpm.ProfileExternalMergeSort(t, m)},
		{wlpm.SegmentSort(0.2), wlpm.ProfileSegmentSort(0.2, t, m)},
		{wlpm.SegmentSort(0.5), wlpm.ProfileSegmentSort(0.5, t, m)},
		{wlpm.SegmentSort(0.8), wlpm.ProfileSegmentSort(0.8, t, m)},
		{wlpm.HybridSort(0.5), wlpm.ProfileHybridSort(0.5, t, m)},
	}

	fmt.Printf("%-14s %14s %16s %14s %14s\n", "candidate", "est. cost", "est. writes", "sim I/O", "writes")
	var est, measured []float64
	bestEst, bestIdx := 0.0, -1
	for i, c := range cands {
		price := c.profile.PriceP(readNs, writeNs, 1)
		simIO, writes := runSort(c.algo)
		est = append(est, price)
		measured = append(measured, float64(simIO))
		if bestIdx < 0 || price < bestEst {
			bestEst, bestIdx = price, i
		}
		fmt.Printf("%-14s %14.4g %16.0f %14v %14d\n",
			c.algo.Name(), price, c.profile.Writes, simIO.Round(time.Microsecond), writes)
	}
	tau := wlpm.KendallTau(est, measured)
	fmt.Printf("\noptimizer's pick: %s — rank concordance with measurements (Kendall's τ): %.3f\n",
		cands[bestIdx].algo.Name(), tau)
	if tau < 0.5 {
		log.Fatalf("cost model ranking diverged from measurements (τ = %.3f)", tau)
	}
	fmt.Println("the optimizer can rank algorithms before touching the device")
}

// runSort executes a and reports the simulated I/O time and cacheline
// writes — the quantities the profiles estimate.
func runSort(a wlpm.SortAlgorithm) (time.Duration, uint64) {
	sys, err := wlpm.New(wlpm.WithCapacity(256 << 20))
	if err != nil {
		log.Fatal(err)
	}
	in, err := sys.Create("in")
	if err != nil {
		log.Fatal(err)
	}
	if err := wlpm.GenerateRecords(rows, 3, in.Append); err != nil {
		log.Fatal(err)
	}
	if err := in.Close(); err != nil {
		log.Fatal(err)
	}
	out, err := sys.Create("out")
	if err != nil {
		log.Fatal(err)
	}
	sys.ResetStats()
	if err := sys.SortCtx(context.Background(), a, in, out, int64(memFrac*rows*wlpm.RecordSize)); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	return st.SimIOTime, st.Writes
}
