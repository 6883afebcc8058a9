// Command wlsort runs a single sort measurement: one algorithm, one
// backend, one memory budget — and prints the response-time and I/O
// breakdown.
//
// Usage:
//
//	wlsort -algo SegS -x 0.4 -n 200000 -mem 0.05 -backend pmfs
//
// -algo is a name of the internal/sorts catalog (its knob placed by -x)
// or a DSL spelling carrying its own ("SegS:0.4").
// -auto runs SegS(auto), SegS with its knob placed where the planner
// places SegS's (cost.SegSKnob); it takes -algo SegS and nothing else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"wlpm/internal/algo"
	"wlpm/internal/cliutil"
	"wlpm/internal/cost"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage/all"
)

const cmd = "wlsort"

func main() {
	var (
		algoName = flag.String("algo", "SegS", "a sort of the catalog, by name or DSL spelling: "+strings.Join(sorts.Spellings(), " "))
		x        = flag.Float64("x", 0.5, "write intensity for SegS/HybS")
		auto     = flag.Bool("auto", false, "let the cost model place SegS's intensity (-algo SegS only)")
		n        = flag.Int("n", 200_000, "input records (80 B each)")
		mem      = flag.Float64("mem", 0.05, "memory budget as a fraction of the input size")
		backend  = flag.String("backend", "blocked", "blocked|pmfs|ramdisk|dynarray")
		block    = flag.Int("block", 1024, "block size in bytes")
		rdLat    = flag.Duration("read-latency", 10*time.Nanosecond, "read latency per cacheline")
		wrLat    = flag.Duration("write-latency", 150*time.Nanosecond, "write latency per cacheline")
		wear     = flag.Bool("wear", false, "track and report device wear")
		par      = flag.Int("p", 1, "worker parallelism (1 = the paper's serial execution)")
		timeout  = flag.Duration("timeout", 0, "abort the sort after this long (0 = no limit); Ctrl-C cancels either way")
	)
	flag.Parse()

	cliutil.CheckPositiveInt(cmd, "n", *n)
	cliutil.CheckPositiveFloat(cmd, "mem", *mem)
	cliutil.CheckPositiveInt(cmd, "block", *block)
	cliutil.CheckParallelism(cmd, *par)
	cliutil.CheckFraction(cmd, "x", *x)

	a := cliutil.Algorithm(cmd, *algoName, sorts.Parse, sorts.New, *x)
	if *auto {
		if *algoName != cost.SortSegS {
			cliutil.Usage(cmd, "-auto places SegS's knob; -algo is %q", *algoName)
		}
		a = sorts.NewAutoSegmentSort()
	}

	payload := int64(*n) * record.Size
	dev, err := pmem.Open(pmem.Config{
		Capacity:     payload*8 + (64 << 20),
		ReadLatency:  *rdLat,
		WriteLatency: *wrLat,
		TrackWear:    *wear,
	})
	if err != nil {
		fatal(err)
	}
	fac, err := all.New(*backend, dev, *block)
	if err != nil {
		fatal(err)
	}
	in, err := fac.Create("input", record.Size)
	if err != nil {
		fatal(err)
	}
	if err := record.Generate(*n, 42, in.Append); err != nil {
		fatal(err)
	}
	if err := in.Close(); err != nil {
		fatal(err)
	}
	out, err := fac.Create("output", record.Size)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	env := algo.NewParallelEnv(fac, int64(*mem*float64(payload)), *par).WithContext(ctx)
	dev.ResetStats()
	start := time.Now()
	if err := a.Sort(env, in, out); err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup before exit
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fatal(fmt.Errorf("sort aborted: -timeout %v exceeded (temporary runs destroyed)", *timeout))
		case errors.Is(err, context.Canceled):
			fatal(fmt.Errorf("sort canceled (temporary runs destroyed)"))
		}
		fatal(err)
	}
	wall := time.Since(start)
	st := dev.Stats()

	fmt.Printf("algorithm      %s on %s (block %d B, P=%d)\n", a.Name(), *backend, *block, *par)
	fmt.Printf("input          %d records (%d MB), memory %.1f%%\n", *n, payload>>20, *mem*100)
	fmt.Printf("response       %v  (wall %v + sim I/O %v + soft %v)\n",
		(wall + st.SimTime()).Round(time.Microsecond), wall.Round(time.Microsecond),
		st.SimIOTime.Round(time.Microsecond), st.SoftTime.Round(time.Microsecond))
	fmt.Printf("cacheline I/O  %d writes, %d reads (λ=%.1f)\n", st.Writes, st.Reads, dev.Lambda())
	if *wear {
		w := dev.Wear()
		fmt.Printf("wear           %d lines written, max %d writes/line, mean %.2f\n", w.Written, w.MaxWrites, w.MeanWrite)
	}
	if out.Len() != *n {
		fatal(fmt.Errorf("output has %d records, want %d", out.Len(), *n))
	}
}

func fatal(err error) { cliutil.Fatal(cmd, err) }
