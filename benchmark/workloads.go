package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"wlpm"
)

// opFunc runs one timed op for a client. It returns the check to run
// after the op's clock and counter snapshots have been taken: the check
// compares the op's output with the oracle and releases what the op
// created. On error the op has already cleaned up and check is nil.
type opFunc func(ctx context.Context, r *rig, c, idx int, ot *opTrace) (check func() error, err error)

// workload is one traffic shape. K (clients) and P (par) are fixed
// numbers, not read from the host, so results compare across machines.
type workload struct {
	name      string
	clients   int     // K closed-loop clients: the next op is issued when the previous one completes
	par       int     // P, the system's worker parallelism
	warm      int     // untimed warm-up ops per client
	opsPerSec float64 // timed ops per client per second of -seconds, calibrated on the reference box
	sortInput bool    // tables: the 60 k-record sort input, else the dim/fact star
	kernel    bool    // calls the algorithms directly: no statistics, no session
	memRows   func(sc scale) int
	grants    int                   // > 0: served over HTTP, the broker budget being this many per-query grants
	weights   []int                 // tenant weights, one per client
	dsl       func(t uint64) string // serve_*: the op's query for filter threshold t
	oracle    func(r *rig) error
	op        opFunc
	ladder    func(ctx context.Context, r *rig, run *tracedRun) error
}

// oracle holds what a rig's ops must produce.
type oracle struct {
	kernel expect            // the kernel workloads' output multiset
	query  expect            // query_star's result
	pool   []uint64          // serve_*: the seeded filter thresholds ops cycle through
	byT    map[uint64]expect // serve_*: the result per threshold
}

// planStats accumulates, over query_star's ops, what the returned
// Explain says about the planner: predicted cost, estimated versus
// actual rows, and Open-time re-plans.
type planStats struct {
	ops      int
	planCost float64
	errPct   float64
	choices  int
	replans  int
}

var workloads = []*workload{
	{
		// One cycle ExMS → SegS(0.2) → LaS over `in`, from write-heavy
		// (ExMS: a read per write) to write-limited (LaS: ~16 reads per
		// write), so a device-layer gain for one end that costs the other
		// shows. sorts, xheap, storage and pmem do all the work.
		name: "sort_kernels", clients: 1, par: 1, warm: 5, opsPerSec: 6,
		sortInput: true, kernel: true, memRows: func(sc scale) int { return sc.in },
		oracle: sortOracle, op: sortOp, ladder: sortLadder,
	},
	{
		// One cycle GJ → SegJ(0.5) → LaJ, dim ⋈ fact, the only workload at
		// P=2: joins, record.Vec and algo's worker pool / parallel build.
		name: "join_kernels", clients: 1, par: 2, warm: 5, opsPerSec: 6,
		kernel: true, memRows: func(sc scale) int { return sc.dim },
		oracle: joinKernelOracle, op: joinOp, ladder: joinLadder,
	},
	{
		// The in-process engine path: planner, budget allocator, Open-time
		// re-planning, fused views, statistics, uncontended broker.
		name: "query_star", clients: 1, par: 1, warm: 10, opsPerSec: 10,
		memRows: func(sc scale) int { return sc.fact },
		oracle:  starQueryOracle, op: starOp, ladder: starLadder,
	},
	{
		// ~50 k rows per op over loopback HTTP with no kernel work and no
		// device writes: NDJSON encoding, flushes, HTTP and client decoding.
		// Two tenants, two grants: admission is uncontended.
		name: "serve_stream", clients: 2, par: 1, warm: 5, opsPerSec: 8,
		memRows: func(sc scale) int { return sc.fact },
		grants:  2, weights: []int{1, 1}, dsl: streamDSL,
		oracle: streamServeOracle, op: serveOp, ladder: serveLadder,
	},
	{
		// 100 rows per op: the per-query fixed cost — round trip, parse,
		// compile, FairGate, broker. Two tenants weighted 3:1 on one grant,
		// so every op queues at the gate and the broker.
		name: "serve_point", clients: 2, par: 1, warm: 50, opsPerSec: 128,
		memRows: func(sc scale) int { return sc.fact },
		grants:  1, weights: []int{3, 1}, dsl: pointDSL,
		oracle: pointServeOracle, op: serveOp, ladder: serveLadder,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// --- sort_kernels -----------------------------------------------------

var sortCycle = []wlpm.SortAlgorithm{wlpm.ExternalMergeSort(), wlpm.SegmentSort(0.2), wlpm.LazySort()}

func sortOracle(r *rig) error {
	in, err := genRecords(r.cfg.sc.in, r.cfg.seed)
	if err != nil {
		return err
	}
	r.want.kernel = multiset(in, recSize)
	return nil
}

func sortOp(ctx context.Context, r *rig, c, idx int, ot *opTrace) (func() error, error) {
	outs := make([]wlpm.Collection, 0, len(sortCycle))
	for j, a := range sortCycle {
		out, err := r.sys.Create(fmt.Sprintf("out.%d.%s", idx, sortNames[j]))
		if err != nil {
			return nil, destroyAll(outs, err)
		}
		outs = append(outs, out)
		end := ot.start("sorts." + sortNames[j])
		err = r.sys.SortCtx(ctx, a, r.cols["in"], out, r.budget)
		end()
		if err != nil {
			return nil, destroyAll(outs, err)
		}
	}
	return func() error { return destroyAll(outs, checkKernelOutputs(outs, sortNames, true, r.want.kernel)) }, nil
}

// checkKernelOutputs digests each kernel output off the device and
// compares it with the oracle.
func checkKernelOutputs(outs []wlpm.Collection, names []string, ordered bool, want expect) error {
	for j, out := range outs {
		got, err := scanCollection(out, ordered)
		if err != nil {
			return err
		}
		if err := want.check(got, names[j]); err != nil {
			return err
		}
	}
	return nil
}

// destroyAll releases the op's output collections, keeping err if set.
func destroyAll(outs []wlpm.Collection, err error) error {
	for _, out := range outs {
		if derr := out.Destroy(); err == nil {
			err = derr
		}
	}
	return err
}

// --- join_kernels -----------------------------------------------------

var joinCycle = []wlpm.JoinAlgorithm{wlpm.GraceJoin(), wlpm.SegmentedGraceJoin(0.5), wlpm.LazyHashJoin()}

func joinKernelOracle(r *rig) error {
	dim, fact, err := genJoin(r.cfg.sc.dim, r.cfg.sc.fact, r.cfg.seed)
	if err != nil {
		return err
	}
	r.want.kernel = multiset(joinOracle(dim, fact), 2*recSize)
	return nil
}

func joinOp(ctx context.Context, r *rig, c, idx int, ot *opTrace) (func() error, error) {
	outs := make([]wlpm.Collection, 0, len(joinCycle))
	for j, a := range joinCycle {
		out, err := r.sys.CreateSized(fmt.Sprintf("out.%d.%s", idx, joinNames[j]), 2*recSize)
		if err != nil {
			return nil, destroyAll(outs, err)
		}
		outs = append(outs, out)
		end := ot.start("joins." + joinNames[j])
		err = r.sys.JoinCtx(ctx, a, r.cols["dim"], r.cols["fact"], out, r.budget)
		end()
		if err != nil {
			return nil, destroyAll(outs, err)
		}
	}
	return func() error { return destroyAll(outs, checkKernelOutputs(outs, joinNames, false, r.want.kernel)) }, nil
}

// --- query_star -------------------------------------------------------

const starDSL = "scan(dim) | join(scan(fact)) | project(a0,a1,a12,a13,a14,a5,a16,a7,a18,a9) | groupby(a3) | orderby"

func starQueryOracle(r *rig) error {
	dim, fact, err := genJoin(r.cfg.sc.dim, r.cfg.sc.fact, r.cfg.seed)
	if err != nil {
		return err
	}
	r.want.query = starOracle(dim, fact)
	return nil
}

// starOp parses the DSL, opens the cursor (grant, compile, blocking
// stages) and drains it to EOF, with the algorithms left to the planner.
func starOp(ctx context.Context, r *rig, c, idx int, ot *opTrace) (func() error, error) {
	end := ot.start("exec.parse")
	q, err := r.sess.ParseQuery(starDSL, r.lookup)
	end()
	if err != nil {
		return nil, err
	}
	end = ot.start("wlpm.open")
	rows, err := q.Rows(ctx)
	if err != nil {
		return nil, err
	}
	end()
	end = ot.start("wlpm.drain")
	r.bufs[c], err = drainRows(rows, r.bufs[c][:0])
	end()
	if err != nil {
		return nil, err
	}
	buf := r.bufs[c]
	width, ex := rows.RecordSize(), rows.Explain()
	return func() error {
		r.plan.observe(ex)
		return r.want.query.check(inOrder(buf, width), "query_star")
	}, nil
}

func (p *planStats) observe(ex *wlpm.QueryExplain) {
	p.ops++
	p.planCost += ex.PlanCost
	for _, c := range ex.Choices {
		if c.ActualRows > 0 {
			d := float64(c.InputRows-c.ActualRows) / float64(c.ActualRows)
			if d < 0 {
				d = -d
			}
			p.errPct += 100 * d
			p.choices++
		}
		if c.Replanned {
			p.replans++
		}
	}
}

// --- serve_stream, serve_point ----------------------------------------

const pointLimit = 100

// streamDSL streams the half of fact at or above threshold t.
func streamDSL(t uint64) string {
	return fmt.Sprintf("scan(fact) | filter(a1 >= %d) | project(a0,a1,a2,a3)", t)
}

// pointDSL sorts the slice of dim below threshold t and returns its
// first pointLimit rows.
func pointDSL(t uint64) string {
	return fmt.Sprintf("scan(dim) | filter(a1 < %d) | orderby | limit(%d)", t, pointLimit)
}

// threshold is the filter constant of a client's idx-th op: clients
// walk the pool from opposite halves, so they repeat templates the way
// real traffic does without running in lockstep.
func (r *rig) threshold(c, idx int) uint64 {
	pool := r.want.pool
	return pool[(c*len(pool)/2+idx)%len(pool)]
}

// a1Domain is the number of distinct values of attribute 1 (key mod
// 1001) in dim and fact: thresholds scale with it, so a smaller scale
// keeps the selectivities.
func a1Domain(sc scale) int { return min(1001, sc.dim) }

// thresholdPool is n filter thresholds covering [lo, hi) evenly: one per
// equal stride, placed within its stride and ordered by the seed. Every
// seed therefore asks for the same mix of selectivities, and the per-op
// device counters differ across seeds only through the data.
func thresholdPool(seed uint64, n, lo, hi int) []uint64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([]uint64, n)
	for i := range pool {
		from, to := lo+i*(hi-lo)/n, lo+(i+1)*(hi-lo)/n
		pool[i] = uint64(from)
		if to > from {
			pool[i] += uint64(rng.Intn(to - from))
		}
	}
	rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// streamServeOracle spreads 20 thresholds around the median of a1, so
// 50 % ± 1 % of fact passes each op's filter.
func streamServeOracle(r *rig) error {
	_, fact, err := genJoin(r.cfg.sc.dim, r.cfg.sc.fact, r.cfg.seed)
	if err != nil {
		return err
	}
	domain := a1Domain(r.cfg.sc)
	r.want.pool = thresholdPool(r.cfg.seed, 20, domain*491/1001, domain*511/1001)
	r.want.byT = make(map[uint64]expect)
	for _, t := range r.want.pool {
		if _, ok := r.want.byT[t]; !ok {
			r.want.byT[t] = streamOracle(fact, t)
		}
	}
	return nil
}

// pointServeOracle spreads 64 thresholds across a1's whole domain: the
// sorted slice of dim runs from a handful of rows to nearly all of it.
func pointServeOracle(r *rig) error {
	dim, _, err := genJoin(r.cfg.sc.dim, r.cfg.sc.fact, r.cfg.seed)
	if err != nil {
		return err
	}
	sorted := sortedCopy(dim)
	r.want.pool = thresholdPool(r.cfg.seed, 64, 1, a1Domain(r.cfg.sc))
	r.want.byT = make(map[uint64]expect)
	for _, t := range r.want.pool {
		if _, ok := r.want.byT[t]; !ok {
			r.want.byT[t] = pointOracle(sorted, t, pointLimit)
		}
	}
	return nil
}

// serveOp sends the op's query over loopback HTTP and reads the NDJSON
// stream to its end line with the client package.
func serveOp(ctx context.Context, r *rig, c, idx int, ot *opTrace) (func() error, error) {
	t := r.threshold(c, idx)
	q := r.remote[c].Query(r.w.dsl(t))
	end := ot.start("client.first_row")
	rows, err := q.Rows(ctx)
	if err != nil {
		return nil, err
	}
	end()
	end = ot.start("client.drain")
	r.bufs[c], err = drainRows(rows, r.bufs[c][:0])
	end()
	if err != nil {
		return nil, err
	}
	buf, width := r.bufs[c], rows.RecordSize()
	return func() error {
		return r.want.byT[t].check(inOrder(buf, width), fmt.Sprintf("%s t=%d", r.w.name, t))
	}, nil
}

// rowStream is the cursor shape wlpm.Rows and client.Rows share.
type rowStream interface {
	Next() bool
	Record() []byte
	Err() error
	Close() error
}

// drainRows appends every remaining record to buf and closes the
// cursor, on every path.
func drainRows(rows rowStream, buf []byte) ([]byte, error) {
	for rows.Next() {
		buf = append(buf, rows.Record()...)
	}
	err := rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return buf, err
}
