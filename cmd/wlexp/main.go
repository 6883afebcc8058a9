// Command wlexp regenerates the paper's experiments: every figure and
// table of the evaluation section, at a configurable scale.
//
// Usage:
//
//	wlexp -run all                 # everything, default 1/50 scale
//	wlexp -run fig5,fig7 -scale 0.1
//	wlexp -run fig6 -mem 0.05,0.10 -v
//	wlexp -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wlpm"
	"wlpm/internal/cliutil"
)

const cmd = "wlexp"

func main() {
	var (
		runIDs  = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.Float64("scale", 0.02, "fraction of the paper's cardinalities (1.0 = 10M-row sort, 1M⋈10M join)")
		backend = flag.String("backend", "blocked", "persistence layer for single-backend experiments (blocked|pmfs|ramdisk|dynarray)")
		block   = flag.Int("block", 1024, "persistence-layer block size in bytes")
		rdLat   = flag.Duration("read-latency", 10*time.Nanosecond, "device read latency per cacheline")
		wrLat   = flag.Duration("write-latency", 150*time.Nanosecond, "device write latency per cacheline")
		memList = flag.String("mem", "", "comma-separated memory fractions overriding each experiment's sweep (e.g. 0.05,0.10)")
		par     = flag.Int("p", 0, "operator worker parallelism (0/1 = serial; the scaling experiment sweeps its own)")
		scalOut = flag.String("scaling-json", "BENCH_scaling.json", "path where the scaling experiment writes its JSON result (empty = don't write)")
		spin    = flag.Bool("spin", false, "inject device latencies as real delays (scaling forces this on)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		verbose = flag.Bool("v", false, "progress output on stderr")
	)
	flag.Parse()

	if *list {
		for _, id := range wlpm.Experiments() {
			fmt.Println(id)
		}
		return
	}

	cliutil.CheckPositiveFloat(cmd, "scale", *scale)
	cliutil.CheckPositiveInt(cmd, "block", *block)
	cliutil.CheckParallelism(cmd, *par)

	cfg := wlpm.ExperimentConfig{
		Scale:        *scale,
		Backend:      *backend,
		BlockSize:    *block,
		ReadLatency:  *rdLat,
		WriteLatency: *wrLat,
		Parallelism:  *par,
		ScalingJSON:  *scalOut,
		Spin:         *spin,
		Verbose:      *verbose,
		Log:          os.Stderr,
	}
	if *memList != "" {
		for _, s := range strings.Split(*memList, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || f <= 0 {
				cliutil.Usage(cmd, "bad -mem entry %q (want a positive fraction)", s)
			}
			cfg.MemoryPoints = append(cfg.MemoryPoints, f)
		}
	}

	known := map[string]bool{}
	for _, id := range wlpm.Experiments() {
		known[id] = true
	}
	ids := wlpm.Experiments()
	if *runIDs != "all" {
		ids = strings.Split(*runIDs, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !known[ids[i]] {
				cliutil.Usage(cmd, "unknown experiment %q (have %s)", ids[i], strings.Join(wlpm.Experiments(), " "))
			}
		}
	}
	for _, id := range ids {
		start := time.Now()
		reps, err := wlpm.RunExperiment(id, cfg)
		if err != nil {
			cliutil.Fatal(cmd, fmt.Errorf("%s: %w", id, err))
		}
		for _, r := range reps {
			r.Print(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "wlexp: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
}
