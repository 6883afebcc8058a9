// Command wljoin runs a single join measurement: one algorithm, one
// backend, one memory budget — and prints the response-time and I/O
// breakdown.
//
// Usage:
//
//	wljoin -algo SegJ -x 0.5 -left 20000 -right 200000 -mem 0.05
//
// -algo is a name of the internal/joins catalog (its knobs placed by -x
// and -y) or a DSL spelling carrying its own ("HybJ:0.5:0.5").
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
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage/all"
)

const cmd = "wljoin"

func main() {
	var (
		algoName = flag.String("algo", "SegJ", "a join of the catalog, by name or DSL spelling: "+strings.Join(joins.Spellings(), " "))
		x        = flag.Float64("x", 0.5, "write intensity (SegJ; HybJ left fraction)")
		y        = flag.Float64("y", 0.5, "HybJ right fraction")
		nLeft    = flag.Int("left", 20_000, "left (smaller) input records")
		nRight   = flag.Int("right", 200_000, "right input records")
		mem      = flag.Float64("mem", 0.05, "memory budget as a fraction of the left input size")
		backend  = flag.String("backend", "blocked", "blocked|pmfs|ramdisk|dynarray")
		block    = flag.Int("block", 1024, "block size in bytes")
		rdLat    = flag.Duration("read-latency", 10*time.Nanosecond, "read latency per cacheline")
		wrLat    = flag.Duration("write-latency", 150*time.Nanosecond, "write latency per cacheline")
		par      = flag.Int("p", 1, "worker parallelism (1 = the paper's serial execution)")
		timeout  = flag.Duration("timeout", 0, "abort the join after this long (0 = no limit); Ctrl-C cancels either way")
	)
	flag.Parse()

	cliutil.CheckPositiveInt(cmd, "left", *nLeft)
	cliutil.CheckPositiveInt(cmd, "right", *nRight)
	cliutil.CheckPositiveFloat(cmd, "mem", *mem)
	cliutil.CheckPositiveInt(cmd, "block", *block)
	cliutil.CheckParallelism(cmd, *par)
	cliutil.CheckFraction(cmd, "x", *x)
	cliutil.CheckFraction(cmd, "y", *y)

	a := cliutil.Algorithm(cmd, *algoName, joins.Parse, joins.New, *x, *y)

	payload := int64(*nLeft+*nRight) * record.Size
	dev, err := pmem.Open(pmem.Config{
		Capacity:     payload*16 + (64 << 20),
		ReadLatency:  *rdLat,
		WriteLatency: *wrLat,
	})
	if err != nil {
		fatal(err)
	}
	fac, err := all.New(*backend, dev, *block)
	if err != nil {
		fatal(err)
	}
	left, err := fac.Create("left", record.Size)
	if err != nil {
		fatal(err)
	}
	right, err := fac.Create("right", record.Size)
	if err != nil {
		fatal(err)
	}
	if err := record.GenerateJoin(*nLeft, *nRight, 42, left.Append, right.Append); err != nil {
		fatal(err)
	}
	if err := left.Close(); err != nil {
		fatal(err)
	}
	if err := right.Close(); err != nil {
		fatal(err)
	}
	out, err := fac.Create("output", 2*record.Size)
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
	env := algo.NewParallelEnv(fac, int64(*mem*float64(*nLeft)*record.Size), *par).WithContext(ctx)
	dev.ResetStats()
	start := time.Now()
	if err := a.Join(env, left, right, out); err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup before exit
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fatal(fmt.Errorf("join aborted: -timeout %v exceeded (temporary partitions destroyed)", *timeout))
		case errors.Is(err, context.Canceled):
			fatal(fmt.Errorf("join canceled (temporary partitions destroyed)"))
		}
		fatal(err)
	}
	wall := time.Since(start)
	st := dev.Stats()

	fmt.Printf("algorithm      %s on %s (block %d B, P=%d)\n", a.Name(), *backend, *block, *par)
	fmt.Printf("inputs         %d ⋈ %d records, memory %.1f%% of left\n", *nLeft, *nRight, *mem*100)
	fmt.Printf("matches        %d\n", out.Len())
	fmt.Printf("response       %v  (wall %v + sim I/O %v + soft %v)\n",
		(wall + st.SimTime()).Round(time.Microsecond), wall.Round(time.Microsecond),
		st.SimIOTime.Round(time.Microsecond), st.SoftTime.Round(time.Microsecond))
	fmt.Printf("cacheline I/O  %d writes, %d reads (λ=%.1f)\n", st.Writes, st.Reads, dev.Lambda())
}

func fatal(err error) { cliutil.Fatal(cmd, err) }
