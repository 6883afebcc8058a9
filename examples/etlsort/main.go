// ETL bulk-load scenario: an append-only ingest of unordered events must
// be turned into a key-ordered file, but the persistent-memory device has
// an endurance budget — every write wears it. The example sweeps the
// write-intensity knob of segment sort and shows response time, write
// volume and device wear per setting, including the cost-model-chosen
// knob, so an operator can pick a point on the latency/endurance curve.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wlpm"
)

const (
	rows   = 150_000
	budget = int64(rows * wlpm.RecordSize / 20) // 5% of the input
)

func run(a wlpm.SortAlgorithm) error {
	sys, err := wlpm.New(wlpm.WithCapacity(256<<20), wlpm.WithWearTracking())
	if err != nil {
		return err
	}
	ingest, err := sys.Create("ingest")
	if err != nil {
		return err
	}
	if err := wlpm.GenerateRecords(rows, 7, ingest.Append); err != nil {
		return err
	}
	if err := ingest.Close(); err != nil {
		return err
	}
	ordered, err := sys.Create("ordered")
	if err != nil {
		return err
	}

	// SortCtx: an operational ETL job would pass a deadline or SIGINT
	// context here; cancellation destroys the partial runs.
	sys.ResetStats()
	start := time.Now()
	if err := sys.SortCtx(context.Background(), a, ingest, ordered, budget); err != nil {
		return err
	}
	wall := time.Since(start)
	st := sys.Stats()
	wear := sys.Wear()
	fmt.Printf("%-14s response %8v   writes %8d   max wear %3d writes/line   mean %5.2f\n",
		a.Name(), (wall + st.SimTime()).Round(time.Millisecond),
		st.Writes, wear.MaxWrites, wear.MeanWrite)
	return nil
}

func main() {
	fmt.Printf("ETL load: %d events, %d B budget, λ = 15\n\n", rows, budget)
	for _, x := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		if err := run(wlpm.SegmentSort(x)); err != nil {
			log.Fatal(err)
		}
	}
	// The cost model places the intensity for this input/memory/λ
	// combination where its SegS profile prices cheapest (the planner's
	// search, seeded with Eq. 4).
	if err := run(wlpm.AutoSegmentSort()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlower intensity → fewer writes and less wear, paid for with extra read passes;")
	fmt.Println("the auto setting is where the cost model prices SegS cheapest")
}
