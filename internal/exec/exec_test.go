package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// rig is one isolated engine test environment.
type rig struct {
	dev  *pmem.Device
	fac  storage.Factory
	outs int // outputs runPlan has created
}

// rigDevice is the capacity of a rig's device, which holds what most
// tests here load (a few thousand rows, under 700 KB) with a plan's
// temps and output beside it. A test whose data outgrows it opens its
// rig at largeRigDevice or at what its data needs (rigOn).
const rigDevice = 2 << 20

// largeRigDevice holds the cancellation grids' plans over 8 000 rows (a
// Grace join's partitions beside 1.28 MB of 160-byte output at P = 8; a
// limit's 560 KB pipe with the sort's runs and merges behind it), the
// feed grid's stored joins on the backends that allocate by extent or by
// doubling, and the 20 000-row group-bys of the fold tests.
const largeRigDevice = 4 << 20

// newRig is a rig on the blocked backend.
func newRig(t testing.TB) *rig { return rigOn(t, "blocked", pmem.Config{Capacity: rigDevice}) }

// rigOn is a rig on the named backend over a device opened by cfg.
func rigOn(t testing.TB, backend string, cfg pmem.Config) *rig {
	t.Helper()
	fac := testkit.Factory(t, backend, cfg)
	return &rig{dev: fac.Device(), fac: fac}
}

func (r *rig) ctx(budget int64, par int) *Ctx { return NewCtx(r.fac, budget, par) }

func (r *rig) create(t testing.TB, name string, recSize int) storage.Collection {
	t.Helper()
	c, err := r.fac.Create(name, recSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadStar loads the 3-table star schema: two dimension tables over the
// same key domain and a fact table with nFact/nDim matches per key.
func (r *rig) loadStar(t testing.TB, nDim, nFact int) (dim1, dim2, fact storage.Collection) {
	t.Helper()
	dim1 = r.create(t, "dim1", record.Size)
	fact = r.create(t, "fact", record.Size)
	if err := record.GenerateJoin(nDim, nFact, 7, dim1.Append, fact.Append); err != nil {
		t.Fatal(err)
	}
	dim2 = r.create(t, "dim2", record.Size)
	if err := record.Generate(nDim, 13, dim2.Append); err != nil {
		t.Fatal(err)
	}
	for _, c := range []storage.Collection{dim1, dim2, fact} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dim1, dim2, fact
}

func readBytes(t testing.TB, c storage.Collection) []byte {
	t.Helper()
	recs, err := storage.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(r)
	}
	return buf.Bytes()
}

// starPlan is the acceptance-criteria pipeline: a 3-table star join,
// projected back to the benchmark schema, grouped and ordered. The
// projection keeps the shared key at a0 and pulls payload attributes
// from all three sides of the 30-attribute join record
// (dim2‖dim1‖fact).
func starPlan(dim1, dim2, fact storage.Collection, sortA sorts.Algorithm, joinA joins.Algorithm) *Plan {
	inner := Table(dim1).JoinWith(Table(fact), joinA)        // dim1‖fact, 160 B
	star := Table(dim2).JoinWith(inner, joinA)               // dim2‖dim1‖fact, 240 B
	slim := star.Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8) // back to 10 attrs, key first
	return slim.GroupByWith(3, sortA).OrderByWith(sortA).Limit(64)
}

const (
	testDim  = 200
	testFact = 2000
	// ~5% of the fact table: small enough that every blocking stage
	// spills, the regime the paper studies.
	testBudget = int64(testFact * record.Size / 20)
)

func TestStarPipelineMatchesHandWired(t *testing.T) {
	fixedSort := sorts.NewExternalMergeSort()
	fixedJoin := joins.NewGrace()

	// Engine run, fixed algorithms so the hand-wired sequence below is
	// bit-for-bit comparable.
	run := func(par int) []byte {
		r := newRig(t)
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		return r.runPlan(t, starPlan(dim1, dim2, fact, fixedSort, fixedJoin), runSpec{budget: testBudget, par: par}).out
	}
	got := run(1)

	// Hand-wired sequence: the same star join written the pre-engine
	// way — explicit temporaries between every algorithm invocation.
	want := handWiredStar(t, fixedSort, fixedJoin)
	if !bytes.Equal(got, want) {
		t.Fatalf("engine output differs from hand-wired sequence (%d records)", len(got)/record.Size)
	}

	// The same plan at P=4 must stay byte-identical.
	if !bytes.Equal(run(4), want) {
		t.Fatal("P=4 output differs from P=1")
	}
}

// handWiredStar runs the star pipeline the way a caller had to before
// the engine existed: hand-picked algorithms, hand-managed temps, and a
// full materialization after every step.
func handWiredStar(t *testing.T, sortA sorts.Algorithm, joinA joins.Algorithm) []byte {
	t.Helper()
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	// The engine splits the plan budget over its 4 blocking stages
	// (2 joins, groupby, orderby); the hand-wired version mirrors that
	// split so the algorithms run with identical memory.
	stageBudget := testBudget / 4

	inner := r.create(t, "hw.inner", 2*record.Size)
	if err := joinA.Join(algo.NewParallelEnv(r.fac, stageBudget, 1), dim1, fact, inner); err != nil {
		t.Fatal(err)
	}
	star := r.create(t, "hw.star", 3*record.Size)
	if err := joinA.Join(algo.NewParallelEnv(r.fac, stageBudget, 1), dim2, inner, star); err != nil {
		t.Fatal(err)
	}
	// Manual projection scan.
	attrs := []int{0, 1, 12, 13, 23, 24, 5, 16, 27, 8}
	slim := r.create(t, "hw.slim", record.Size)
	recs, err := storage.ReadAll(star)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, record.Size)
	for _, rec := range recs {
		for i, a := range attrs {
			copy(buf[i*record.AttrSize:(i+1)*record.AttrSize], rec[a*record.AttrSize:(a+1)*record.AttrSize])
		}
		if err := slim.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := slim.Close(); err != nil {
		t.Fatal(err)
	}
	// Manual group-by: a map, independent of the sort kernels under test.
	grouped := r.create(t, "hw.grouped", record.Size)
	if err := mapGroupBy(slim, 3, grouped); err != nil {
		t.Fatal(err)
	}
	ordered := r.create(t, "hw.ordered", record.Size)
	if err := sortA.Sort(algo.NewParallelEnv(r.fac, stageBudget, 1), grouped, ordered); err != nil {
		t.Fatal(err)
	}
	// Manual limit.
	out, err := storage.ReadAll(ordered)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 64 {
		out = out[:64]
	}
	var b bytes.Buffer
	for _, rec := range out {
		b.Write(rec)
	}
	return b.Bytes()
}

// mapGroupBy is the group-by computed the naive way, as the benchmark's
// oracle computes it: a map of count/sum/min/max of attribute attr per
// key, then one result record per key in ascending key order, into out.
func mapGroupBy(in storage.Collection, attr int, out storage.Collection) error {
	type agg struct{ count, sum, min, max uint64 }
	recs, err := storage.ReadAll(in)
	if err != nil {
		return err
	}
	groups := map[uint64]*agg{}
	var keys []uint64
	for _, rec := range recs {
		k, v := record.Key(rec), record.Attr(rec, attr)
		g := groups[k]
		if g == nil {
			g = &agg{min: v, max: v}
			groups[k] = g
			keys = append(keys, k)
		}
		g.count++
		g.sum += v
		g.min, g.max = min(g.min, v), max(g.max, v)
	}
	slices.Sort(keys)
	for _, k := range keys {
		g, rec := groups[k], make([]byte, record.Size)
		record.SetAttr(rec, aggregate.AttrGroupKey, k)
		record.SetAttr(rec, aggregate.AttrCount, g.count)
		record.SetAttr(rec, aggregate.AttrSum, g.sum)
		record.SetAttr(rec, aggregate.AttrMin, g.min)
		record.SetAttr(rec, aggregate.AttrMax, g.max)
		if err := out.Append(rec); err != nil {
			return err
		}
	}
	return out.Close()
}

func TestPipelineWritesFewerCachelines(t *testing.T) {
	run := func(materialize bool) uint64 {
		r := newRig(t)
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		plan := starPlan(dim1, dim2, fact, sorts.NewExternalMergeSort(), joins.NewGrace())
		return r.runPlan(t, plan, runSpec{budget: testBudget, par: 1, opts: CompileOptions{MaterializeEveryStep: materialize}}).stats.Writes
	}
	pipelined, materialized := run(false), run(true)
	if pipelined >= materialized {
		t.Fatalf("pipelined plan wrote %d cachelines, materialize-every-step %d: want strictly fewer",
			pipelined, materialized)
	}
	t.Logf("cacheline writes: pipelined %d vs materialized %d (%.1f%% saved)",
		pipelined, materialized, 100*(1-float64(pipelined)/float64(materialized)))
}

func TestStreamingOperators(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	const n = 1000
	if err := record.Generate(n, 3, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	plan := Table(in).
		Filter(Predicate{Attr: 0, Op: Ge, Value: 500}).
		Project(0, 2).
		Limit(100)
	res := r.runPlan(t, plan, runSpec{budget: 8 << 10, par: 1})
	if w := res.root.RecordSize(); w != 2*record.AttrSize {
		t.Fatalf("projected record is %d bytes", w)
	}
	if n := len(res.out) / (2 * record.AttrSize); n != 100 {
		t.Fatalf("limit produced %d records, want 100", n)
	}
	for off := 0; off < len(res.out); off += 2 * record.AttrSize {
		rec := res.out[off : off+2*record.AttrSize]
		k := record.Attr(rec, 0)
		if k < 500 {
			t.Fatalf("filter leaked key %d", k)
		}
		if want := k / 3; record.Attr(rec, 1) != want {
			t.Fatalf("projection scrambled a2: got %d want %d", record.Attr(rec, 1), want)
		}
	}
}

// inputTemps name the results a fed plan never stores: a join's, a
// group-by's and a drained stream's.
var inputTemps = []string{"joined", "grouped", "pipe"}

// spillTemps name every temp a fold that stays in memory never makes:
// an intake's or a sort's runs, an intermediate merge pass's output, and
// the inputs above.
var spillTemps = append([]string{"run", "merge"}, inputTemps...)

// runSpec says how runPlan compiles and runs a plan. Its zero value is a
// serial run at the default batch size under context.Background into a
// fresh output, which must succeed.
type runSpec struct {
	budget int64
	par    int
	batch  int // Ctx.BatchSize; 0 keeps the default
	opts   CompileOptions
	ctx    context.Context // nil: context.Background
	// fac wraps the temp-counting factory the run's temps come from; out
	// wraps the collection the run writes its output to.
	fac func(storage.Factory) storage.Factory
	out func(storage.Collection) storage.Collection
	// cursor pulls the root the way the façade's Rows does (pullCursor)
	// instead of running it into an output: take, if set, takes each row
	// in the output's place, and opened is called once the root is open.
	cursor bool
	take   func(rec []byte) error
	opened func()
	err    error // what the run must fail with (errors.Is); nil: nothing
}

// planRun is what one run of a plan leaves to check.
type planRun struct {
	out   []byte         // the rows emitted, concatenated
	stats pmem.Stats     // the device's counters over the run alone
	ex    *Explain       // re-rendered after the run
	temps *testkit.Temps // the temps the run created, by prefix
	root  Operator
}

// runPlan compiles plan over r's device as s says, runs it and reads
// what it emitted, dropping the output collection after, so one rig can
// run many plans. It fails t unless the run ends in s.err and leaves no
// temp live.
func (r *rig) runPlan(t testing.TB, plan *Plan, s runSpec) planRun {
	t.Helper()
	counted := testkit.CountTemps(r.fac)
	var fac storage.Factory = counted
	if s.fac != nil {
		fac = s.fac(counted)
	}
	ec := NewCtx(fac, s.budget, s.par)
	ec.BatchSize = s.batch
	root, ex, err := CompileWith(ec, plan, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var out bytes.Buffer
	var dst storage.Collection
	if s.cursor {
		take := s.take
		if take == nil {
			take = func(rec []byte) error { out.Write(rec); return nil }
		}
		r.dev.ResetStats()
		err = pullCursor(ctx, ec, root, s.opened, take)
	} else {
		r.outs++
		dst = r.create(t, fmt.Sprintf("out.%d", r.outs), root.RecordSize())
		var wrapped storage.Collection = dst
		if s.out != nil {
			wrapped = s.out(dst)
		}
		r.dev.ResetStats()
		err = RunCtx(ctx, ec, root, wrapped)
	}
	st := r.dev.Stats()
	if !errors.Is(err, s.err) {
		t.Fatalf("run ended in %v, want %v", err, s.err)
	}
	if live := ec.LiveTemps(); live != 0 {
		t.Fatalf("the run left %d live temps", live)
	}
	ex.Rerender()
	if dst != nil {
		out.Write(readBytes(t, dst))
		if err := dst.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	return planRun{out: out.Bytes(), stats: st, ex: ex, temps: counted, root: root}
}

// copyWrites is what writing recs (recSize bytes each, concatenated) to a
// fresh collection costs the device: the writes of a result alone.
func copyWrites(t *testing.T, r *rig, recs []byte, recSize int) uint64 {
	t.Helper()
	return copyCost(t, r, recs, recSize).Writes
}

// copyCost is copyWrites' whole counter: a backend that grows its
// collections by copying (dynarray) reads as it appends.
func copyCost(t *testing.T, r *rig, recs []byte, recSize int) pmem.Stats {
	t.Helper()
	c := r.create(t, fmt.Sprintf("copy.%d", len(recs)), recSize)
	r.dev.ResetStats()
	for off := 0; off < len(recs); off += recSize {
		if err := c.Append(recs[off : off+recSize]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return r.dev.Stats()
}

// groupByReference is the pinned-ExMS group-by of n rows over groups
// keys at budget (loadGrouped), under whatever wrap puts above it: the
// bytes every planner-owned group-by must reproduce.
func groupByReference(t *testing.T, n, groups int, budget int64, wrap func(*Plan) *Plan) []byte {
	t.Helper()
	r := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice}) // up to 20 000 rows and their runs
	plan := wrap(Table(loadGrouped(t, r, "in", n, groups)).GroupByWith(4, sorts.NewExternalMergeSort()))
	return r.runPlan(t, plan, runSpec{budget: budget, par: 1}).out
}

// gridCells are the parallelism × batch-size cells an in-memory group-by
// must give the same bytes and writes at.
var gridCells = [][2]int{{1, 1}, {1, 1024}, {4, 1}, {4, 1024}}

func noWrap(p *Plan) *Plan { return p }

// TestFoldResidentMatchesSortGroupBy: a planner-owned group-by whose
// groups fit its share folds them in memory, wherever it runs — at the
// plan root, pulled by a cursor, under a Limit, feeding an order-by's
// intake — and in every P × batch cell writes the plan's result alone:
// no run, no temp of any kind, and nothing at all for the cursor. The
// bytes are the pinned sort-based plan's. A cursor over a fold that
// evicts pulls the final merge of its runs (Intake.Stream): it writes
// the runs alone — what the same plan run into an output writes, less
// that output — and no result temp.
func TestFoldResidentMatchesSortGroupBy(t *testing.T) {
	sortedBy := func(p *Plan) *Plan { return p.OrderByWith(sorts.NewExternalMergeSort()) }
	for _, sh := range []struct {
		name          string
		groups, hint  int
		budget        int64
		cursor        bool
		wrap, refWrap func(p *Plan) *Plan
	}{
		{"root", 40, 40, 1 << 20, false, noWrap, noWrap},
		{"cursor", 40, 40, 1 << 20, true, noWrap, noWrap},
		{"limit", 40, 40, 1 << 20, false, func(p *Plan) *Plan { return p.Limit(10) }, func(p *Plan) *Plan { return p.Limit(10) }},
		{"orderby", 300, 300, 1 << 20, false, func(p *Plan) *Plan { return p.OrderBy() }, sortedBy},
		// 50 hinted groups fit the 204 slots of 16 KiB, so the group-by
		// feeds at every P; the 1 000 real ones evict.
		{"cursor-evict", 1000, 50, 16 << 10, true, noWrap, noWrap},
	} {
		t.Run(sh.name, func(t *testing.T) {
			const n = 3000
			evicts := sh.budget < 1<<20
			want := groupByReference(t, n, sh.groups, sh.budget, sh.refWrap)
			for _, cell := range gridCells {
				r := newRig(t)
				in := loadGrouped(t, r, "in", n, sh.groups)
				plan := func() *Plan { return sh.wrap(Table(in).GroupHint(sh.hint).GroupBy(4)) }
				spec := runSpec{budget: sh.budget, par: cell[0], batch: cell[1]}
				pulled := spec
				pulled.cursor = sh.cursor
				res := r.runPlan(t, plan(), pulled)
				if ch := res.ex.Choices[0]; !ch.Fed {
					t.Fatalf("P=%d batch=%d: planner chose %+v, want the fed group-by", cell[0], cell[1], ch)
				}
				got, writes, counted, width := res.out, res.stats.Writes, res.temps, res.root.RecordSize()
				if !bytes.Equal(got, want) {
					t.Fatalf("P=%d batch=%d: fold output differs from the pinned sort-based plan", cell[0], cell[1])
				}
				var alone uint64
				switch {
				case evicts:
					if counted.N("run") == 0 || counted.N(inputTemps...) != 0 {
						t.Errorf("P=%d batch=%d: an evicting fold under a cursor created temps %v, want runs and no result temp", cell[0], cell[1], counted)
					}
					alone = r.runPlan(t, plan(), spec).stats.Writes - copyWrites(t, r, got, width)
				case counted.N(spillTemps...) != 0:
					t.Errorf("P=%d batch=%d: a resident fold created temps %v", cell[0], cell[1], counted)
				case !sh.cursor:
					alone = copyWrites(t, r, got, width)
				}
				if writes != alone {
					t.Errorf("P=%d batch=%d: %d cacheline writes, the result alone is %d", cell[0], cell[1], writes, alone)
				}
			}
		})
	}
}

// BenchmarkGroupByInMemory: a planner-owned group-by over a table whose
// groups fit its share — the fold that stays in memory — at 40 and 2 000
// groups, P = 1, emitted to the plan output (RunCtx) and pulled by a
// cursor. cl_writes/op is the result alone for RunCtx and zero for the
// cursor.
func BenchmarkGroupByInMemory(b *testing.B) {
	const rows = 20000
	for _, groups := range []int{40, 2000} {
		for _, drive := range []string{"run", "cursor"} {
			b.Run(fmt.Sprintf("groups%d/%s", groups, drive), func(b *testing.B) {
				r := newRig(b)
				plan := Table(loadGrouped(b, r, "in", rows, groups)).GroupHint(groups).GroupBy(4)
				b.ReportAllocs()
				r.dev.ResetStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n := groupInMemory(b, r, plan, drive, i); n != groups {
						b.Fatalf("%d groups, want %d", n, groups)
					}
				}
				b.ReportMetric(float64(r.dev.Stats().Writes)/float64(b.N), "cl_writes/op")
			})
		}
	}
}

// TestGroupByInMemoryAllocs is BenchmarkGroupByInMemory's allocation
// budget: what the in-memory fold allocates is per query — plan, stage,
// the heap's slab and index doublings, one widening buffer for the
// groups it emits — never per row folded nor per group widened, so 20 000
// rows in 40 or 2 000 groups stay within a budget a few allocations above
// what the fold takes today.
func TestGroupByInMemoryAllocs(t *testing.T) {
	const rows = 20000
	for _, c := range []struct {
		groups int
		drive  string
		budget float64
	}{{40, "run", 100}, {40, "cursor", 95}, {2000, "run", 140}, {2000, "cursor", 125}} {
		r := newRig(t)
		plan := Table(loadGrouped(t, r, "in", rows, c.groups)).GroupHint(c.groups).GroupBy(4)
		i := 0
		allocs := testing.AllocsPerRun(5, func() {
			if n := groupInMemory(t, r, plan, c.drive, i); n != c.groups {
				t.Fatalf("%d groups, want %d", n, c.groups)
			}
			i++
		})
		if allocs > c.budget {
			t.Errorf("groups %d, %s: %.0f allocations per query, budget %.0f", c.groups, c.drive, allocs, c.budget)
		}
		t.Logf("groups %d, %s: %.0f allocations per query", c.groups, c.drive, allocs)
	}
}

// groupInMemory compiles plan and runs it once, the i-th time, into a
// fresh plan output or pulled by a cursor, and returns the groups it
// emitted.
func groupInMemory(tb testing.TB, r *rig, plan *Plan, drive string, i int) int {
	ctx := context.Background()
	ec := r.ctx(1<<20, 1)
	root, _, err := Compile(ec, plan)
	if err != nil {
		tb.Fatal(err)
	}
	if drive == "cursor" {
		if err := ec.Bind(ctx); err != nil {
			tb.Fatal(err)
		}
		it, err := root.Open(ctx, ec)
		if err != nil {
			tb.Fatal(err)
		}
		n, cur := 0, storage.NewCursor(it, ec.PullSize())
		for {
			if _, err := cur.Next(); err == io.EOF {
				break
			} else if err != nil {
				tb.Fatal(err)
			}
			n++
		}
		if err := root.Close(); err != nil {
			tb.Fatal(err)
		}
		return n
	}
	out := r.create(tb, fmt.Sprintf("out%d", i), record.Size)
	if err := RunCtx(ctx, ec, root, out); err != nil {
		tb.Fatal(err)
	}
	if b, ok := tb.(*testing.B); ok {
		b.StopTimer()
		defer b.StartTimer()
	}
	n := out.Len()
	if err := out.Destroy(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestFusedFilterWritesNothing pins the fusion property: a filter
// feeding a blocking sort contributes zero cacheline writes — the
// order-by over the fused view writes exactly what the same order-by
// writes over a pre-materialized collection holding the filtered rows.
func TestFusedFilterWritesNothing(t *testing.T) {
	const n = 4000
	pred := Predicate{Attr: 0, Op: Lt, Value: n / 2}

	// Engine: scan → filter → orderby, fused.
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 9, in.Append); err != nil {
		t.Fatal(err)
	}
	in.Close()
	fused := r.runPlan(t, Table(in).Filter(pred).OrderByWith(sorts.NewExternalMergeSort()), runSpec{budget: 16 << 10, par: 1})

	// Reference: the same sort over an already-filtered base collection
	// (its writes are the sort's own floor — the filter must add none).
	r2 := newRig(t)
	pre := r2.create(t, "pre", record.Size)
	if err := record.Generate(n, 9, func(rec []byte) error {
		if pred.Eval(rec) {
			return pre.Append(rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	ref := r2.runPlan(t, Table(pre).OrderByWith(sorts.NewExternalMergeSort()), runSpec{budget: 16 << 10, par: 1})

	if !bytes.Equal(fused.out, ref.out) {
		t.Fatal("fused filter changed the sorted result")
	}
	if fused.stats.Writes != ref.stats.Writes {
		t.Errorf("fused filter pipeline wrote %d cachelines, sort floor is %d", fused.stats.Writes, ref.stats.Writes)
	}
}

// TestGroupHintSurvivesStreamingStages: a hint set below a filter still
// reaches the group-by above it, where it sizes the fold; across a
// projection that rewrites the key it must not.
func TestGroupHintSurvivesStreamingStages(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	const groups = 40
	for i := 0; i < 2000; i++ {
		if err := in.Append(record.New(uint64(i % groups))); err != nil {
			t.Fatal(err)
		}
	}
	in.Close()
	estimate := func(p *Plan) int {
		t.Helper()
		root, _, err := Compile(r.ctx(1<<20, 1), p)
		if err != nil {
			t.Fatal(err)
		}
		return root.(*Sort).st.groupEst
	}
	if got := estimate(Table(in).GroupHint(groups).Filter(Predicate{Attr: 1, Op: Ge, Value: 0}).GroupBy(4)); got != groups {
		t.Fatalf("hint below a filter was dropped: the group-by estimates %d groups, want %d", got, groups)
	}
	if got := estimate(Table(in).GroupHint(groups).Project(1, 0, 2, 3, 4, 5, 6, 7, 8, 9).GroupBy(4)); got != 0 {
		t.Fatalf("hint leaked through a projection that rewrites the key: the group-by estimates %d groups", got)
	}
}

// loadGrouped fills a collection with n rows over the given number of
// distinct keys, attribute 4 carrying a per-row value so every aggregate
// slot is exercised.
func loadGrouped(t testing.TB, r *rig, name string, n, groups int) storage.Collection {
	t.Helper()
	in := r.create(t, name, record.Size)
	for i := 0; i < n; i++ {
		rec := record.New(uint64(i % groups))
		record.SetAttr(rec, 4, uint64(i))
		if err := in.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// loadScattered holds loadGrouped's rows in random order: each group's
// rows arrive scattered, the uniform arrivals a fold is priced for, where
// loadGrouped's cyclic order is the worst one for a heap smaller than the
// group count (every row misses). Both group to the same bytes.
func loadScattered(t testing.TB, r *rig, name string, n, groups int) storage.Collection {
	t.Helper()
	in := r.create(t, name, record.Size)
	for _, i := range rand.New(rand.NewSource(int64(n + groups))).Perm(n) {
		rec := record.New(uint64(i % groups))
		record.SetAttr(rec, 4, uint64(i))
		if err := in.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// foldPath is the path a planner-owned group-by's folding intake must
// take, told by the run temps it creates.
type foldPath int

const (
	foldAny      foldPath = iota // not checked
	foldResident                 // every group fits: no run temp at all
	foldEvict                    // the groups outnumber the slots: at least one run
)

// checkFoldPath fails t unless the run temps counted took path.
func checkFoldPath(t *testing.T, path foldPath, counted *testkit.Temps) {
	t.Helper()
	switch {
	case path == foldResident && counted.N("run") != 0:
		t.Errorf("a fold whose groups fit wrote %d run(s)", counted.N("run"))
	case path == foldEvict && counted.N("run") == 0:
		t.Error("a fold whose groups outnumber its slots wrote no run")
	}
}

// TestFoldEvictFallback is the regression test of the budget blow-up
// bug: a GroupHint underestimating the group count 10× prices a fold that
// fits, and the running query must still complete — the folding intake
// evicts partials to sorted runs and merges them — with output
// byte-identical to the pinned sort-based GroupBy plan and the same
// writes in every P × batch cell. An absent hint (and no statistics)
// also completes.
func TestFoldEvictFallback(t *testing.T) {
	const (
		n      = 20000
		groups = 5000 // actual distinct groups
		hint   = 500  // 10× underestimate
		budget = int64(128 << 10)
	)
	want := groupByReference(t, n, groups, budget, noWrap)

	// An underestimated hint must degrade (evict), not fail: runPlan fails
	// the test on any error.
	var wantWrites uint64
	for i, cell := range gridCells {
		rh := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice})
		res := rh.runPlan(t, Table(loadGrouped(t, rh, "in", n, groups)).GroupHint(hint).GroupBy(4), runSpec{budget: budget, par: cell[0], batch: cell[1]})
		if ex := res.ex; len(ex.Choices) != 1 || !ex.Choices[0].Fed {
			t.Fatalf("hinted plan chose %+v, want the fed group-by", ex.Choices)
		}
		if writes := res.stats.Writes; i == 0 {
			wantWrites = writes
		} else if writes != wantWrites {
			t.Errorf("P=%d batch=%d: %d cacheline writes, P=1 batch=1 wrote %d", cell[0], cell[1], writes, wantWrites)
		}
		if res.temps.N("run") == 0 {
			t.Errorf("P=%d batch=%d: 5 000 groups in a 128 KiB share evicted no run", cell[0], cell[1])
		}
		if got := res.ex.Choices[0].ActualRows; got != n {
			t.Errorf("explain actual rows = %d, want %d", got, n)
		}
		if !bytes.Equal(res.out, want) {
			t.Fatalf("P=%d batch=%d: evicting fold output differs from the pinned sort-based GroupBy plan", cell[0], cell[1])
		}
	}

	// Absent hint, no statistics: the planner assumes every record is its
	// own group, and completes.
	ra := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice})
	if got := ra.runPlan(t, Table(loadGrouped(t, ra, "in", n, groups)).GroupBy(4), runSpec{budget: budget, par: 1}).out; !bytes.Equal(got, want) {
		t.Fatal("hintless output differs from the pinned sort-based GroupBy plan")
	}
}

// TestFoldEvictMultiPassMerge shrinks the budget until the evicted runs
// far outnumber the merge fan-in (floored at 2), exercising the folding
// intermediate merge passes — and stacks an OrderBy above the group-by, so
// its result reaches a blocking parent.
func TestFoldEvictMultiPassMerge(t *testing.T) {
	const (
		n      = 2000
		groups = 1000
		budget = int64(4 << 10) // two stages: 2 KiB each, fan-in at the floor
	)
	rh := newRig(t)
	counted := testkit.CountTemps(rh.fac)
	ctxH := NewCtx(counted, budget, 1)
	rootH, ex, err := Compile(ctxH, Table(loadScattered(t, rh, "in", n, groups)).GroupHint(10).GroupBy(4).OrderBy())
	if err != nil {
		t.Fatal(err)
	}
	out := rh.create(t, "fold", record.Size)
	if err := RunCtx(context.Background(), ctxH, rootH, out); err != nil {
		t.Fatal(err)
	}
	if !ex.Choices[0].Fed {
		t.Fatalf("plan chose %+v, want the fed group-by", ex.Choices[0])
	}
	if counted.N("merge") == 0 {
		t.Errorf("no intermediate merge pass ran (temps %v)", counted)
	}
	if !bytes.Equal(readBytes(t, out), groupByReference(t, n, groups, budget, func(p *Plan) *Plan {
		return p.OrderByWith(sorts.NewExternalMergeSort())
	})) {
		t.Fatal("multi-pass fold merge output differs from the sort-based plan")
	}
}

func TestDSLPlanMatchesBuilder(t *testing.T) {
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	lookup := func(name string) (storage.Collection, error) {
		switch name {
		case "dim1":
			return dim1, nil
		case "dim2":
			return dim2, nil
		case "fact":
			return fact, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}

	src := "scan(dim2) | join(scan(dim1) | join(scan(fact); GJ); GJ) " +
		"| project(a0,a1,a12,a13,a23,a24,a5,a16,a27,a8) | groupby(a3; ExMS) | orderby(ExMS) | limit(64)"
	parsed, err := ParsePlan(src, lookup)
	if err != nil {
		t.Fatal(err)
	}
	got := r.runPlan(t, parsed, runSpec{budget: testBudget, par: 1}).out

	r2 := newRig(t)
	d1, d2, f := r2.loadStar(t, testDim, testFact)
	want := r2.runPlan(t, starPlan(d1, d2, f, sorts.NewExternalMergeSort(), joins.NewGrace()), runSpec{budget: testBudget, par: 1}).out

	if !bytes.Equal(got, want) {
		t.Fatal("DSL plan output differs from builder plan output")
	}
}

func TestDSLErrors(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "t", record.Size)
	lookup := func(string) (storage.Collection, error) { return in, nil }
	for _, src := range []string{
		"",
		"filter(a0 == 1)",                       // must start with scan
		"scan(t) | scan(t)",                     // scan mid-plan
		"scan(t) | frobnicate(a1)",              // unknown stage
		"scan(t) | filter(a0 ~ 3)",              // bad operator
		"scan(t) | join(scan(t); ZJ)",           // unknown join algorithm
		"scan(t) | orderby(SegS)",               // missing knob
		"scan(t) | orderby(SegS:2)",             // knob out of range
		"scan(t) | orderby(SegS:NaN)",           // NaN knob
		"scan(t) | join(scan(t); HybJ:NaN:0.5)", // NaN knob of a join
		"scan(t) | join(scan(t)",                // unbalanced parens
		"scan(t) | groupby(a1, groups=-3)",      // bad group hint
		"scan(t) | limit(x)",                    // bad limit
	} {
		if _, err := ParsePlan(src, lookup); err == nil {
			t.Errorf("ParsePlan(%q) accepted", src)
		}
	}
}

// TestDSLAlgorithmErrorText: algorithm spellings are parsed by the sorts
// and joins catalogs, and what a DSL user reads is unchanged by that.
func TestDSLAlgorithmErrorText(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "t", record.Size)
	lookup := func(string) (storage.Collection, error) { return in, nil }
	for src, want := range map[string]string{
		"scan(t) | join(scan(t); ZJ)":   `exec: unknown algorithm "ZJ" (joins: NLJ HJ GJ LaJ SegJ:<x> HybJ:<x>:<y>)`,
		"scan(t) | orderby(SegS)":       `exec: algorithm "SegS" takes 1 knob(s), got 0 (sorts: ExMS SelS LaS SegS:<x> HybS:<x>)`,
		"scan(t) | groupby(a1; HybS:2)": `exec: bad knob "2" (want a fraction in [0, 1]) (sorts: ExMS SelS LaS SegS:<x> HybS:<x>)`,
	} {
		if _, err := ParsePlan(src, lookup); err == nil || err.Error() != want {
			t.Errorf("ParsePlan(%q): %v, want %s", src, err, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(10, 1, in.Append); err != nil {
		t.Fatal(err)
	}
	in.Close()

	// Wrong output width.
	bad := r.create(t, "bad", 16)
	if err := RunCtx(context.Background(), r.ctx(4<<10, 1), NewScan(in), bad); err == nil {
		t.Error("record-size mismatch accepted")
	}
	// Non-empty output.
	full := r.create(t, "full", record.Size)
	full.Append(record.New(1)) //nolint:errcheck
	if err := RunCtx(context.Background(), r.ctx(4<<10, 1), NewScan(in), full); err == nil {
		t.Error("non-empty output accepted")
	}
	// Bad budget.
	out := r.create(t, "out", record.Size)
	if err := RunCtx(context.Background(), r.ctx(0, 1), NewScan(in), out); err == nil {
		t.Error("zero budget accepted")
	}
	// Bad predicate attribute fails at plan time.
	ctx := r.ctx(4<<10, 1)
	if _, _, err := Compile(ctx, Table(in).Filter(Predicate{Attr: 99, Op: Eq, Value: 0})); err == nil {
		t.Error("out-of-record predicate compiled")
	}
	// A group-by over an unprojected join fails at plan time too.
	if _, _, err := Compile(r.ctx(4<<10, 1), Table(in).Join(Table(in)).GroupBy(3)); err == nil {
		t.Error("group-by over 160-byte join records compiled")
	}
}

func TestEmptyInputPipeline(t *testing.T) {
	r := newRig(t)
	empty := r.create(t, "empty", record.Size)
	empty.Close()
	if got := r.runPlan(t, Table(empty).Filter(Predicate{Attr: 1, Op: Gt, Value: 3}).OrderBy(), runSpec{budget: 8 << 10, par: 1}).out; len(got) != 0 {
		t.Fatalf("empty pipeline produced %d bytes", len(got))
	}
}
