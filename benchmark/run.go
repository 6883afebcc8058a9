package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// section is what a batch of closed-loop ops measured.
type section struct {
	clients   int
	walls     []time.Duration // every op's wall time, all clients
	traced    []time.Duration // the ops that ran with spans on (traced run only)
	untraced  []time.Duration // their untraced neighbours
	busy      time.Duration   // Σ walls
	used      usage           // host and device counters consumed by the ops
	attempted int
	failed    int
	firstErr  error
}

// runSection has every client issue n ops back to back, op indices
// starting at base. With a tracer, odd ops run with spans on and even
// ops without, so the two populations share the run's conditions.
//
// Verification runs after each op's clock has stopped. With one client
// the host and device counters are also snapshotted around each op, so
// verification enters no metric at all; with several clients the
// counters are process-wide and are taken around the whole section,
// where verification is only the hashing of a row buffer in DRAM.
func (r *rig) runSection(ctx context.Context, base, n int, tr *tracer) *section {
	sec := &section{clients: r.w.clients}
	perOp := r.w.clients == 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := r.usage()
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				var ot *opTrace
				if tr != nil && i%2 == 1 {
					ot = tr.begin(c, base+i)
				}
				u0 := usage{}
				if perOp {
					u0 = r.usage()
				}
				start := time.Now()
				end := ot.start("op")
				check, err := r.w.op(ctx, r, c, base+i, ot)
				end()
				wall := time.Since(start)
				var used usage
				if perOp {
					used = r.usage().sub(u0)
				}
				ot.flush()
				if err == nil {
					err = check()
				}
				mu.Lock()
				sec.attempted++
				sec.walls = append(sec.walls, wall)
				sec.busy += wall
				sec.used = sec.used.add(used)
				switch {
				case tr == nil:
				case ot != nil:
					sec.traced = append(sec.traced, wall)
				default:
					sec.untraced = append(sec.untraced, wall)
				}
				if err != nil {
					sec.failed++
					if sec.firstErr == nil {
						sec.firstErr = fmt.Errorf("client %d op %d: %w", c, base+i, err)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if !perOp {
		sec.used = r.usage().sub(before)
	}
	return sec
}

// perOp divides a section total by its op count.
func (s *section) perOp(total float64) float64 { return total / float64(s.attempted) }

// runMeasured is one measured run of a workload: set-ups (timed),
// warm-up, the timed ops with tracing off, the output checks.
func runMeasured(ctx context.Context, w *workload, cfg config, log io.Writer) (*result, error) {
	var setups []time.Duration
	var r *rig
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.tearDown(ctx); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC() // each set-up starts from the same heap
		}
		start := time.Now()
		var err error
		if r, err = setUp(ctx, w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	if err := w.oracle(r); err != nil {
		return nil, err
	}
	warm, n := cfg.warmOps(w), cfg.timedOps(w)
	if sec := r.runSection(ctx, 0, warm, nil); sec.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", sec.firstErr)
	}
	sec := r.runSection(ctx, warm, n, nil)
	if err := r.tearDown(ctx); err != nil {
		return nil, err
	}

	m := newMetricSet(endToEnd)
	tail := tailPercentile(n * w.clients)
	m.set("setup_s", median(setups).Seconds())
	m.set("op_p50_ms", millis(median(sec.walls)))
	m.set("op_tail_ms", millis(percentile(sec.walls, tail)))
	m.set("ops_per_s", float64(sec.attempted)*float64(sec.clients)/sec.busy.Seconds())
	m.set("cpu_ms_per_op", sec.perOp(millis(sec.used.cpu)))
	m.set("alloc_mb_per_op", sec.perOp(mib(sec.used.alloc)))
	// The device clock, in ms and in the paper's cost unit: the cacheline
	// reads that take as long (reads + λ·writes when nothing overlaps).
	modelled := sec.used.dev.SimIOOverlap + sec.used.dev.SoftTime
	m.set("modelled_ms_per_op", sec.perOp(millis(modelled)))
	m.set("modelled_cost_per_op", sec.perOp(float64(modelled)/float64(readLatency)))
	m.set("cl_reads_per_op", sec.perOp(float64(sec.used.dev.Reads)))
	m.set("cl_writes_per_op", sec.perOp(float64(sec.used.dev.Writes)))
	m.set("failed_op_share", sec.perOp(float64(sec.failed)))

	res := &result{Correct: sec.failed == 0, Attempted: sec.attempted, Failed: sec.failed, Metrics: m.values}
	fmt.Fprintf(log, "%s  seed %d: K=%d clients, P=%d, %d warm-up + %d timed ops per client; op_tail_ms is p%d of %d samples\n",
		w.name, cfg.seed, w.clients, w.par, warm, n, tail, len(sec.walls))
	printMetrics(log, endToEnd, m.values)
	fmt.Fprintf(log, "  %-42s %16.6g ms  (op_p50_ms + modelled_ms_per_op, the paper's response time)\n", "response_ms",
		m.values["op_p50_ms"].Value+m.values["modelled_ms_per_op"].Value)
	if sec.firstErr != nil {
		fmt.Fprintf(log, "  FAILED %d of %d ops; first: %v\n", sec.failed, sec.attempted, sec.firstErr)
	}
	return res, nil
}
