// Command benchmark is the repository's performance benchmark: five
// workloads from the sort/join kernels out to the HTTP wire, measured on
// both clocks the system has (host wall time and the modelled device time
// built from cacheline counts), with a traced run that splits each
// workload into per-layer numbers. README.md in this directory documents
// the workloads, the metrics, their bounds and how they interact.
//
//	go run ./benchmark -workload sort_kernels -seed 1              # one measured run
//	go run ./benchmark -workload sort_kernels -seed 1 -trace 1     # its traced run
//	go run ./benchmark -all -seed 1 -out a.json                    # all five, measured
//	go run ./benchmark -compare a.json b.json                      # A/A or parent-vs-change
//
// Every layer is measured from outside, by timing calls into its exported
// functions and snapshotting System.Stats / GET /v1/metrics around them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"time"
)

// refSeconds is the -seconds value the per-workload op rates were
// calibrated for on the 2-core reference box; BENCHMARK.json's
// run_seconds is the same number.
const refSeconds = 15

// runDeadline bounds a single-workload run.
const runDeadline = 170 * time.Second

// config is what one run needs besides its workload.
type config struct {
	sc      scale
	seed    uint64
	seconds float64 // scales the fixed op counts; a run lasts about this long on the reference box
	setups  int     // set-ups per measured run; setup_s is their median
	fixed   int     // > 0: timed ops per client regardless of seconds (the smoke configuration)
	outDir  string  // where the traced run writes its span file
}

// timedOps is the number of timed ops each client issues. Op counts are
// a fixed function of -seconds, never of how fast the host happens to
// be, so device counters compare exactly across runs and commits.
func (c config) timedOps(w *workload) int {
	if c.fixed > 0 {
		return c.fixed
	}
	n := int(w.opsPerSec*c.seconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func (c config) warmOps(w *workload) int {
	if c.fixed > 0 {
		return 1
	}
	return w.warm
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the last line of a single-workload run's
// standard output, and one entry of an -out result set.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultSet is the -out file: what -compare reads.
type resultSet struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		all     = flag.Bool("all", false, "run all five workloads in turn")
		seed    = flag.Uint64("seed", 1, "selects the generated tables and the per-op constants")
		seconds = flag.Float64("seconds", refSeconds, "run length: scales the fixed op counts (they are calibrated for 15)")
		trace   = flag.Int("trace", 0, "1: traced run — spans around every layer call, then the ladder rungs; prints the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tables ÷ 20 and 3 timed ops (what go test ./benchmark runs)")
		out     = flag.String("out", "", "also write the results as a JSON result set (input of -compare)")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result-set files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}

	cfg := config{sc: fullScale, seed: *seed, seconds: *seconds, setups: 15, outDir: "benchmark/out"}
	if *smoke {
		cfg = smokeConfig(*seed, cfg.outDir)
	}
	var run []*workload
	switch {
	case *all && *name == "":
		run = workloads
	case !*all && *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
		}
		run = []*workload{w}
	default:
		fatal(fmt.Errorf("give exactly one of -workload and -all"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(run) == 1 {
		// A single run must end within the driver's 180 s whatever happens:
		// past the deadline every pending op fails and the run reports it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runDeadline)
		defer cancel()
	}

	set := resultSet{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Workloads: make(map[string]*result)}
	okAll := true
	var last *result
	for _, w := range run {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(ctx, w, cfg, os.Stdout)
		} else {
			res, err = runMeasured(ctx, w, cfg, os.Stdout)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		set.Workloads[w.name] = res
		okAll = okAll && res.Correct
		last = res
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fatal(err)
		}
	}
	if len(run) == 1 {
		// The driver's contract: the last line is the run's result object.
		// It carries the metrics BENCHMARK.json names; the lines above it
		// carry everything measured.
		line, err := json.Marshal(driverResult(last, *trace == 1))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !okAll {
		os.Exit(1)
	}
}

// driverResult narrows a result to the metrics BENCHMARK.json lists: a
// measured run also computes cl_writes_per_op and failed_op_share, which
// are legitimately zero on some workloads and so cannot be gated as a
// share of the parent's value (failures travel in failed/attempted), and
// modelled_ms_per_op, which the driver gets as modelled_cost_per_op: it
// is computed from counters and repeats to the digit, and the driver
// refuses a time that does.
func driverResult(r *result, traced bool) *result {
	if traced {
		return r
	}
	narrowed := *r
	narrowed.Metrics = make(map[string]metric, len(r.Metrics))
	for _, d := range endToEnd {
		if d.gated {
			narrowed.Metrics[d.name] = r.Metrics[d.name]
		}
	}
	return &narrowed
}

// printMetrics renders a run's metrics as an aligned table, in the order
// the definitions list them.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.name, v.Value, v.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
