package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"wlpm"
	"wlpm/client"
	"wlpm/internal/algo"
	"wlpm/internal/broker"
	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/server"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/xheap"
)

// The traced run: the workload again with spans on every other op, then
// the ladder — the same work measured at each boundary from the raw
// device outward, so a layer's cost is a subtraction, not a guess.

// tracedRun carries a traced run's state to the ladder rungs.
type tracedRun struct {
	m   *metricSet
	tr  *tracer
	sec *section
}

// reps is how often a rung repeats; rungs report the median repetition.
const reps = 3

func runTraced(ctx context.Context, w *workload, cfg config, log io.Writer) (*result, error) {
	r, err := setUp(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.oracle(r); err != nil {
		return nil, err
	}
	warm, n := cfg.warmOps(w), cfg.timedOps(w)
	if sec := r.runSection(ctx, 0, warm, nil); sec.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", sec.firstErr)
	}
	run := &tracedRun{m: newMetricSet(perLayer), tr: newTracer(r.usage)}
	var gc0, gc1 runtime.MemStats
	met0, err := r.serverMetrics(ctx)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&gc0)
	run.sec = r.runSection(ctx, warm, n, run.tr)
	runtime.ReadMemStats(&gc1)
	met1, err := r.serverMetrics(ctx)
	if err != nil {
		return nil, err
	}
	sec, m := run.sec, run.m

	m.set("pmem.read_ops_per_op", sec.perOp(float64(sec.used.dev.ReadOps)))
	m.set("pmem.write_ops_per_op", sec.perOp(float64(sec.used.dev.WriteOps)))
	m.set("pmem.cl_writes_per_op", sec.perOp(float64(sec.used.dev.Writes)))
	m.set("host.gc_pause_ms_per_op", sec.perOp(millis(time.Duration(gc1.PauseTotalNs-gc0.PauseTotalNs))))
	m.set("host.gc_cycles_per_op", sec.perOp(float64(gc1.NumGC-gc0.NumGC)))
	if base := median(sec.untraced); base > 0 {
		m.set("bench.trace_overhead_pct", 100*(float64(median(sec.traced))/float64(base)-1))
	}
	if met1 != nil {
		var gate, admit int64
		for name, t1 := range met1.Tenants {
			gate += t1.GateWaitMs - met0.Tenants[name].GateWaitMs
			admit += t1.AdmitWaitMs - met0.Tenants[name].AdmitWaitMs
		}
		m.set("server.gate_wait_ms_per_op", sec.perOp(float64(gate)))
		m.set("broker.admit_wait_ms_per_op", sec.perOp(float64(admit)))
		m.set("broker.high_water_share", float64(met1.Broker.HighWater)/float64(met1.Broker.Total))
	}
	run.spanMetrics()

	if err := commonLadder(r, run); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := w.ladder(ctx, r, run); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	m.set("host.peak_rss_mb", mib(peakRSS()))
	if err := r.tearDown(ctx); err != nil {
		return nil, err
	}
	path, err := run.tr.write(cfg.outDir, w.name, cfg.seed)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: sec.failed == 0, Attempted: sec.attempted, Failed: sec.failed, Metrics: m.values}
	fmt.Fprintf(log, "%s  seed %d, traced: %d timed ops per client, spans on every other op, written to %s\n", w.name, cfg.seed, n, path)
	run.tr.printLayerTable(log)
	printMetrics(log, perLayer, m.values)
	if over := m.values["bench.trace_overhead_pct"].Value; over > 5 {
		fmt.Fprintf(log, "  WARNING: tracing overhead %.1f %% > 5 %%: layer shares of this run are not trustworthy\n", over)
	}
	if sec.firstErr != nil {
		fmt.Fprintf(log, "  FAILED %d of %d ops; first: %v\n", sec.failed, sec.attempted, sec.firstErr)
	}
	return res, nil
}

// serverMetrics fetches GET /v1/metrics; nil when the workload has no
// server.
func (r *rig) serverMetrics(ctx context.Context) (*client.Metrics, error) {
	if r.srv == nil {
		return nil, nil
	}
	return r.remote[0].Metrics(ctx)
}

// spanMetrics turns the spans around the workload's layer calls into
// per-layer metrics: medians over the traced ops.
func (run *tracedRun) spanMetrics() {
	groups := run.tr.byName()
	for name, spans := range groups {
		layer, _, _ := strings.Cut(name, ".")
		switch {
		case layer == "sorts" || layer == "joins":
			run.m.set(name+".wall_ms", spanMedian(spans, durMs))
			run.m.set(name+".cpu_ms", spanMedian(spans, func(s span) float64 { return millis(time.Duration(s.CPUNs)) }))
			run.m.set(name+".modelled_ms", spanMedian(spans, func(s span) float64 { return millis(time.Duration(s.ModelledNs)) }))
			run.m.set(name+".cl_writes", spanMedian(spans, func(s span) float64 { return float64(s.Writes) }))
			run.m.set(name+".cl_reads", spanMedian(spans, func(s span) float64 { return float64(s.Reads) }))
			run.m.set(name+".alloc_mb", spanMedian(spans, func(s span) float64 { return mib(s.AllocBytes) }))
		case name == "wlpm.open" || name == "wlpm.drain" || name == "client.first_row" || name == "client.drain":
			run.m.set(name+"_ms", spanMedian(spans, durMs))
		}
	}
}

// timeReps runs fn reps times and returns the median duration.
func timeReps(fn func() error) (time.Duration, error) {
	var d []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start))
	}
	return median(d), nil
}

// perItem is a duration spread over n items, in nanoseconds.
func perItem(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// commonLadder measures the two bottom rungs every workload stands on:
// the raw device in block-sized accesses, and the storage layer's
// record, chunk and append paths over a table of `in`'s size.
func commonLadder(r *rig, run *tracedRun) error {
	const blocks = 8192
	dev, err := pmem.Open(pmem.Config{Capacity: blocks * blockSize, ReadLatency: readLatency, WriteLatency: writeLatency})
	if err != nil {
		return err
	}
	block := make([]byte, blockSize)
	lines := blocks * blockSize / dev.CachelineSize()
	write, err := timeReps(func() error {
		for i := int64(0); i < blocks; i++ {
			if err := dev.WriteAt(block, i*blockSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	read, err := timeReps(func() error {
		for i := int64(0); i < blocks; i++ {
			if err := dev.ReadAt(block, i*blockSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	run.m.set("pmem.write_ns_per_cl", perItem(write, lines))
	run.m.set("pmem.read_ns_per_cl", perItem(read, lines))

	n := r.cfg.sc.in
	recs, err := genRecords(n, r.cfg.seed)
	if err != nil {
		return err
	}
	var appends, scans, chunks []time.Duration
	var written uint64
	for i := 0; i < reps; i++ {
		rung, err := r.storageRung(recs)
		if err != nil {
			return err
		}
		appends, scans, chunks = append(appends, rung.app), append(scans, rung.scan), append(chunks, rung.chunk)
		written = rung.written
	}
	run.m.set("storage.append_ns_per_rec", perItem(median(appends), n))
	run.m.set("storage.scan_ns_per_rec", perItem(median(scans), n))
	run.m.set("storage.chunk_ns_per_rec", perItem(median(chunks), n))
	run.m.set("storage.cl_writes_per_rec", float64(written)/float64(n))
	return nil
}

// storageTimes is one pass of the storage rung.
type storageTimes struct {
	app, scan, chunk time.Duration
	written          uint64 // cachelines the appends wrote
}

// storageRung appends recs to a fresh collection, scans it record by
// record and chunk by chunk, and destroys it.
func (r *rig) storageRung(recs []byte) (t storageTimes, err error) {
	c, err := r.sys.Create("ladder.storage")
	if err != nil {
		return t, err
	}
	defer func() { err = destroyAll([]wlpm.Collection{c}, err) }()
	before := r.sys.Stats()
	start := time.Now()
	for off := 0; off < len(recs); off += recSize {
		if err := c.Append(recs[off : off+recSize]); err != nil {
			return t, err
		}
	}
	if err := c.Close(); err != nil {
		return t, err
	}
	t.app = time.Since(start)
	t.written = r.sys.Stats().Sub(before).Writes
	start = time.Now()
	if err := scanRecords(c.Scan()); err != nil {
		return t, err
	}
	t.scan = time.Since(start)
	start = time.Now()
	if err := scanChunks(c.Scan()); err != nil {
		return t, err
	}
	t.chunk = time.Since(start)
	return t, nil
}

func scanRecords(it storage.Iterator) error {
	defer it.Close()
	for {
		if _, err := it.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func scanChunks(it storage.Iterator) error {
	defer it.Close()
	ci, ok := it.(storage.ChunkIterator)
	if !ok {
		return fmt.Errorf("iterator %T has no NextChunk", it)
	}
	for {
		if _, err := ci.NextChunk(batchSize); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// kernelEnv is an operator environment on the rig's device at
// parallelism p, for the rungs that call an algorithm directly.
func (r *rig) kernelEnv(ctx context.Context, p int) *algo.Env {
	return algo.NewParallelEnv(r.sys.Factory(), r.budget, p).WithContext(ctx)
}

// inEnv runs fn with a fresh output collection and environment, then
// checks the environment left no temporaries and destroys the output.
func (r *rig) inEnv(env *algo.Env, name string, recordSize int, fn func(out wlpm.Collection) error) error {
	out, err := r.sys.CreateSized(name, recordSize)
	if err != nil {
		return err
	}
	err = fn(out)
	if err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
	} else if n := env.LiveTemps(); n != 0 {
		err = fmt.Errorf("%s: %d temporaries still live after a clean run", name, n)
	}
	return destroyAll([]wlpm.Collection{out}, err)
}

// sortLadder: the merge heap on its own, ExMS's final merge through the
// phase recorder, and the ExMS rung again at P=2.
func sortLadder(ctx context.Context, r *rig, run *tracedRun) error {
	const fanIn, pulls = 16, 1 << 20
	keys := make([]uint64, fanIn)
	for i := range keys {
		keys[i] = uint64(i)
	}
	h := xheap.Heapify(keys, func(a, b uint64) bool { return a < b })
	start := time.Now()
	for i := 0; i < pulls; i++ {
		// Like a k-way merge: the popped run's next key lands somewhere
		// among the other runs' heads.
		h.ReplaceRoot(h.Peek() + uint64(i%fanIn) + 1)
	}
	run.m.set("xheap.replace_ns", perItem(time.Since(start), pulls))

	exms := sorts.NewExternalMergeSort()
	in := r.cols["in"]
	var mergeWall []time.Duration
	var mergeWrites uint64
	for i := 0; i < reps; i++ {
		rec := algo.NewPhaseRecorder()
		env := r.kernelEnv(ctx, 1).WithPhases(rec)
		err := r.inEnv(env, "ladder.merge", recSize, func(out wlpm.Collection) error { return exms.Sort(env, in, out) })
		if err != nil {
			return err
		}
		p := rec.Phase(sorts.FinalMergePhase)
		mergeWall = append(mergeWall, p.Wall)
		mergeWrites = p.Stats.Writes
	}
	run.m.set("sorts.final_merge.wall_ms", millis(median(mergeWall)))
	run.m.set("sorts.final_merge.cl_writes", float64(mergeWrites))

	p2, err := timeReps(func() error {
		env := r.kernelEnv(ctx, 2)
		return r.inEnv(env, "ladder.p2", recSize, func(out wlpm.Collection) error { return exms.Sort(env, in, out) })
	})
	if err != nil {
		return err
	}
	run.m.set("sorts.ExMS.p2_wall_ms", millis(p2))
	return nil
}

// joinLadder: the record vector on its own, GJ's build phase through
// the phase recorder, and the whole cycle at P=2 against P=1.
func joinLadder(ctx context.Context, r *rig, run *tracedRun) error {
	const appends = 1 << 20
	rec := record.New(1)
	vec := record.NewVec(record.Size, 1<<14)
	start := time.Now()
	for i := 0; i < appends; i++ {
		if vec.Len() == 1<<14 {
			vec.Reset()
		}
		vec.Append(rec)
	}
	run.m.set("record.vec_append_ns", perItem(time.Since(start), appends))

	dim, fact := r.cols["dim"], r.cols["fact"]
	gj := joins.NewGrace()
	var buildWall []time.Duration
	var buildReads uint64
	for i := 0; i < reps; i++ {
		pr := algo.NewPhaseRecorder()
		env := r.kernelEnv(ctx, r.w.par).WithPhases(pr)
		err := r.inEnv(env, "ladder.build", 2*recSize, func(out wlpm.Collection) error { return gj.Join(env, dim, fact, out) })
		if err != nil {
			return err
		}
		p := pr.Phase(joins.BuildPhase)
		buildWall = append(buildWall, p.Wall)
		buildReads = p.Stats.Reads
	}
	run.m.set("joins.build.wall_ms", millis(median(buildWall)))
	run.m.set("joins.build.cl_reads", float64(buildReads))

	// The cycle at P=1 and P=2, interleaved so both see the same host.
	wall := map[int][]time.Duration{}
	cpu := map[int][]time.Duration{}
	for i := 0; i < reps; i++ {
		for _, p := range []int{1, 2} {
			c0, start := cpuTime(), time.Now()
			for j, a := range joinCycle {
				env := r.kernelEnv(ctx, p)
				err := r.inEnv(env, "ladder.cycle."+joinNames[j], 2*recSize, func(out wlpm.Collection) error { return a.Join(env, dim, fact, out) })
				if err != nil {
					return err
				}
			}
			wall[p] = append(wall[p], time.Since(start))
			cpu[p] = append(cpu[p], cpuTime()-c0)
		}
	}
	run.m.set("algo.p2_wall_ratio", float64(median(wall[2]))/float64(median(wall[1])))
	run.m.set("algo.p2_cpu_ratio", float64(median(cpu[2]))/float64(median(cpu[1])))
	return nil
}

// plannerRungs times the control path of one query: parse, compile with
// pricing (no run), and the cost model's best-plan searches at the
// workload's t, v, m and λ. It also re-collects the table statistics.
func plannerRungs(r *rig, run *tracedRun, dsl string) error {
	const calls = 50
	var parse, compile, best []time.Duration
	for i := 0; i < calls; i++ {
		start := time.Now()
		q, err := r.sess.ParseQuery(dsl, r.lookup)
		if err != nil {
			return err
		}
		parse = append(parse, time.Since(start))
		start = time.Now()
		if _, err := q.ExplainGranted(); err != nil {
			return err
		}
		compile = append(compile, time.Since(start))

		t := float64(r.cfg.sc.dim) * recSize / blockSize
		v := float64(r.cfg.sc.fact) * recSize / blockSize
		m := float64(r.budget) / blockSize
		lambda := wlpm.Lambda(readLatency, writeLatency)
		start = time.Now()
		sp := cost.BestSortPlanP(t, m, lambda, float64(r.w.par))
		jp := cost.BestJoinPlanP(t, v, m, lambda, float64(r.w.par))
		best = append(best, time.Since(start))
		if sp.Algo == "" || jp.Algo == "" {
			return fmt.Errorf("cost model returned no plan")
		}
	}
	run.m.set("exec.parse_us", micros(median(parse)))
	run.m.set("exec.compile_us", micros(median(compile)))
	run.m.set("cost.best_plan_us", micros(median(best)))

	collect, err := timeReps(func() error {
		for _, name := range sortedKeys(r.cols) {
			if _, err := r.sys.Collect(r.cols[name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	run.m.set("stats.collect_ms", millis(collect))
	return nil
}

// starLadder: the planner's control path, the aggregation kernel the
// plan's group-by stands on, and what the returned Explains say about
// the planner's predictions.
func starLadder(ctx context.Context, r *rig, run *tracedRun) error {
	if err := plannerRungs(r, run, starDSL); err != nil {
		return err
	}
	fact := r.cols["fact"]
	groupby, err := timeReps(func() error {
		out, err := r.sys.Create("ladder.groupby")
		if err != nil {
			return err
		}
		return destroyAll([]wlpm.Collection{out}, r.sys.GroupByCtx(ctx, wlpm.SegmentSort(0.5), fact, 3, out, r.budget))
	})
	if err != nil {
		return err
	}
	run.m.set("aggregate.groupby_ms", millis(groupby))

	// The same plan with a materialization barrier after every operator.
	q, err := r.sess.ParseQuery(starDSL, r.lookup)
	if err != nil {
		return err
	}
	out, err := r.sess.Create("ladder.materialized")
	if err != nil {
		return err
	}
	before := r.sys.Stats()
	err = q.RunMaterializedCtx(ctx, out)
	materialized := r.sys.Stats().Sub(before).Writes
	if err := destroyAll([]wlpm.Collection{out}, err); err != nil {
		return err
	}
	sec, p := run.sec, r.plan
	run.m.set("exec.pipelined_over_materialized_writes", sec.perOp(float64(sec.used.dev.Writes))/float64(materialized))
	// PlanCost is in buffer reads: one buffer is blockSize/cacheline
	// cachelines at the read latency.
	predicted := p.planCost / float64(p.ops) * blockSize / pmem.DefaultCachelineSize * float64(readLatency)
	run.m.set("cost.predicted_over_modelled", predicted/float64(sec.used.dev.SimIOOverlap+sec.used.dev.SoftTime)*float64(sec.attempted))
	if p.choices > 0 {
		run.m.set("exec.est_rows_err_pct", p.errPct/float64(p.choices))
	}
	run.m.set("exec.replans_per_op", float64(p.replans)/float64(p.ops))
	return nil
}

// discardWriter is an in-memory http.ResponseWriter: the body is
// counted and dropped, flushes are accepted.
type discardWriter struct {
	header http.Header
	status int
	bytes  int64
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += int64(len(p)); return len(p), nil }
func (w *discardWriter) Flush()                      {}

// serveLadder climbs one query from the engine to the wire with a
// single client: in-process cursor → Server.Handler() with an in-memory
// writer → loopback HTTP through the client package. Row encoding is
// the second rung minus the first, client decoding (with the socket)
// the third minus the second.
func serveLadder(ctx context.Context, r *rig, run *tracedRun) error {
	if err := plannerRungs(r, run, r.w.dsl(r.want.pool[0])); err != nil {
		return err
	}

	const acquires = 10000
	b, err := broker.New(int64(r.w.grants) * r.budget)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < acquires; i++ {
		g, err := b.Acquire(ctx, r.budget, broker.Block)
		if err != nil {
			return err
		}
		g.Release()
	}
	run.m.set("broker.acquire_us", perItem(time.Since(start), acquires)/1000)

	const climbs = 20
	handler := r.srv.Handler()
	var inproc, drain, handled, remote []time.Duration
	var rows, wire []float64
	for i := 0; i < climbs; i++ {
		t := r.want.pool[i%len(r.want.pool)]
		dsl := r.w.dsl(t)
		want := r.want.byT[t]

		start := time.Now()
		q, err := r.sess.ParseQuery(dsl, r.lookup)
		if err != nil {
			return err
		}
		cur, err := q.Rows(ctx)
		if err != nil {
			return err
		}
		opened := time.Now()
		buf, err := drainRows(cur, r.bufs[0][:0])
		r.bufs[0] = buf
		if err != nil {
			return err
		}
		inproc = append(inproc, time.Since(start))
		drain = append(drain, time.Since(opened))
		if err := want.check(inOrder(buf, cur.RecordSize()), "in-process "+dsl); err != nil {
			return err
		}
		rows = append(rows, float64(want.rows))

		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"plan":%q}`, dsl))).WithContext(ctx)
		req.Header.Set(server.TenantHeader, tenantName(0))
		dw := &discardWriter{header: make(http.Header)}
		start = time.Now()
		handler.ServeHTTP(dw, req)
		handled = append(handled, time.Since(start))
		if dw.status != http.StatusOK {
			return fmt.Errorf("handler answered HTTP %d to %s", dw.status, dsl)
		}
		wire = append(wire, float64(dw.bytes))

		start = time.Now()
		check, err := serveOp(ctx, r, 0, i, nil)
		if err != nil {
			return err
		}
		remote = append(remote, time.Since(start))
		if err := check(); err != nil {
			return err
		}
	}
	nRows := medianFloat(rows)
	run.m.set("wlpm.inproc_ms", millis(median(inproc)))
	run.m.set("server.handler_ms", millis(median(handled)))
	run.m.set("exec.stream_ns_per_row", float64(median(drain))/nRows)
	run.m.set("server.encode_ns_per_row", float64(median(handled)-median(inproc))/nRows)
	run.m.set("client.decode_ns_per_row", float64(median(remote)-median(handled))/nRows)
	run.m.set("server.wire_bytes_per_row", medianFloat(wire)/nRows)
	return nil
}
