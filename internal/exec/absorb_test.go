package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// Emit-side chains and the fold are checked against references, not
// against themselves: an absorbed chain against the materialize-every-
// step run of the same plan, the fold across everything that must not
// change it (P, batch size, backend), and both against destinations and
// contexts that fail mid-emit.

// absorbSources are the blocking producers a chain can be absorbed into,
// each as a plan ending at the producer. The two planner-owned group-bys
// fold in memory: hashagg-memory's 300 groups fit its share, so its
// intake writes no run; hashagg-spill's 300 outnumber the 204 partial
// slots of 8 KiB, so it evicts runs and merges them.
var absorbSources = []struct {
	name   string
	budget int64
	fold   foldPath
	build  func(t *testing.T, r *rig) *Plan
}{
	{"join", bgBudget, foldAny, func(t *testing.T, r *rig) *Plan {
		dim, fact := loadJoinApart(t, r, bgDim, bgFact)
		return Table(dim).JoinWith(Table(fact), joins.NewGrace())
	}},
	{"groupby-sort", bgBudget, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadGrouped(t, r, "in", bgRows, 300)).GroupByWith(4, sorts.NewSegmentSort(0.5))
	}},
	{"hashagg-memory", 1 << 20, foldResident, func(t *testing.T, r *rig) *Plan {
		return Table(loadGrouped(t, r, "in", bgRows, 300)).GroupHint(300).GroupBy(4)
	}},
	{"hashagg-spill", 16 << 10 * aggregate.PartialSize / record.Size, foldEvict, func(t *testing.T, r *rig) *Plan {
		return Table(loadScattered(t, r, "in", 4000, 300)).GroupHint(300).GroupBy(4)
	}},
}

// loadJoinApart loads loadStar's dim1 and fact, but with fact's payload
// told apart from dim1's: attribute i > 0 of a fact record, v in the
// star, holds 3v + i. In loadStar the two halves of a match hold equal
// values at equal positions, so a chain that reads one half where it
// should read the other still emits the right bytes; here it does not.
func loadJoinApart(t *testing.T, r *rig, nDim, nFact int) (dim, fact storage.Collection) {
	t.Helper()
	dim = r.create(t, "dim1", record.Size)
	fact = r.create(t, "fact", record.Size)
	apart := func(rec []byte) error {
		for i := 1; i < record.NumAttrs; i++ {
			record.SetAttr(rec, i, 3*record.Attr(rec, i)+uint64(i))
		}
		return fact.Append(rec)
	}
	if err := record.GenerateJoin(nDim, nFact, 7, dim.Append, apart); err != nil {
		t.Fatal(err)
	}
	for _, c := range []storage.Collection{dim, fact} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dim, fact
}

// absorbPred keeps most but not all rows of every source: a0 is the
// join key over [0, bgDim) or the group key over [0, groups).
var absorbPred = Predicate{Attr: 0, Op: Ge, Value: 20}

// chainCase is a Filter/Project chain put over a plan whose join (if it
// has one) has a left input left attributes wide.
type chainCase struct {
	name  string
	apply func(p *Plan, left int) *Plan
}

// absorbChains each drop a column or a row; the last filters a column
// the projection beneath it moved, so the predicate must be mapped back.
var absorbChains = []chainCase{
	{"project", func(p *Plan, _ int) *Plan { return p.Project(0, 3, 1) }},
	{"filter", func(p *Plan, _ int) *Plan { return p.Filter(absorbPred) }},
	{"filter-project", func(p *Plan, _ int) *Plan { return p.Filter(absorbPred).Project(1, 0) }},
	{"project-filter-project", func(p *Plan, _ int) *Plan {
		return p.Project(3, 1, 0).Filter(Predicate{Attr: 2, Op: Ge, Value: 20}).Project(2, 0)
	}},
}

// splitChains read a join's right half, which a chain applied to each
// match's halves must find past the left width: a filter on a right
// attribute; a projection taking attributes of both halves in reverse
// order; and a filter on a right attribute that projection moved,
// mapped back through it. Each projects the star's left attributes (a0,
// a1, a5, a7, a9), so a narrowed build side is 40 B wide. Over the star,
// fact's a2 is its key ÷ 3 (3·⌊key/3⌋ + 2 over loadJoinApart's), so the
// filters drop a few keys. Every star attribute derives from the key, so
// over loadStar the two halves of a match hold the same values at the
// same positions and only a narrowed build side tells a read of the
// wrong half from the right one; loadJoinApart's halves differ at every
// position, which tells it in every shape.
var splitChains = []chainCase{
	{"filter-right", func(p *Plan, left int) *Plan {
		return p.Filter(Predicate{Attr: left + 2, Op: Ge, Value: 5}).Project(0, 1, 5, 7, 9, left+3)
	}},
	{"project-straddle", func(p *Plan, left int) *Plan { return p.Project(left+5, 9, 7, left+2, 5, 1, 0) }},
	{"project-straddle-filter", func(p *Plan, left int) *Plan {
		return p.Project(left+5, 9, 7, left+2, 5, 1, 0).Filter(Predicate{Attr: 3, Op: Ge, Value: 5})
	}},
}

// drainCursor opens root and pulls it to the end the way the façade's
// Rows cursor does.
func drainCursor(t *testing.T, ec *Ctx, root Operator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pullCursor(context.Background(), ec, root, nil, func(rec []byte) error { buf.Write(rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamingOps counts the Stream operators of a tree that stream: a
// join's left input projected over a base table (build-side narrowing)
// is a view the join scans, and does not count.
func streamingOps(op Operator) int {
	n := 0
	switch op.(type) {
	case *Stream:
		n = 1
	}
	for i, c := range op.Children() {
		if s, ok := c.(*Stream); ok && i == 0 {
			if _, join := op.(*Join); join {
				if _, scan := s.child.(*Scan); scan {
					continue
				}
			}
		}
		n += streamingOps(c)
	}
	return n
}

// TestAbsorbedChainMatchesMaterializedReference: Project, Filter and
// Filter→Project over a Join, a pinned sort-based GroupBy and both paths
// of a planner-owned one (resident and evicting fold) — pulled by a
// blocking parent, streamed to a cursor and emitted at the plan root —
// produce the materialize-every-step run's bytes with strictly fewer
// cacheline writes (every chain here drops a column or a row), and
// compile to no Filter or Project operator at all. The reference of an
// evicting fold runs the sort the pipelined plan ran, ExMS, over its
// stored input: left to choose, its planner takes a stored sort by a
// price that does not yet see that sort fold, and that sort's folding
// selection passes write less than any intake that evicts — a
// difference of sorts, not of materializing.
func TestAbsorbedChainMatchesMaterializedReference(t *testing.T) {
	for _, src := range absorbSources {
		chains := absorbChains
		if src.name == "join" {
			chains = append(slices.Clip(chains), splitChains...)
		}
		for _, ch := range chains {
			for _, shape := range []string{"blocking-input", "cursor", "root"} {
				t.Run(fmt.Sprintf("%s/%s/%s", src.name, ch.name, shape), func(t *testing.T) {
					run := func(opts CompileOptions) ([]byte, uint64) {
						r := newRig(t)
						plan := src.build(t, r)
						if opts.MaterializeEveryStep && src.fold == foldEvict {
							plan = plan.left.GroupByWith(plan.attr, sorts.NewExternalMergeSort())
						}
						plan = ch.apply(plan, record.NumAttrs)
						if shape == "blocking-input" {
							plan = plan.OrderByWith(sorts.NewExternalMergeSort())
						}
						res := r.runPlan(t, plan, runSpec{budget: src.budget, par: 1, opts: opts, cursor: shape == "cursor" && !opts.MaterializeEveryStep})
						if !opts.MaterializeEveryStep && shape != "blocking-input" { // the pinned order-by forms runs of its own
							checkFoldPath(t, src.fold, res.temps)
						}
						if n := streamingOps(res.root); !opts.MaterializeEveryStep && n != 0 {
							t.Fatalf("%d Filter/Project operators survive in %s", n, res.root.Name())
						}
						return res.out, res.stats.Writes
					}
					got, writes := run(CompileOptions{})
					want, refWrites := run(CompileOptions{MaterializeEveryStep: true})
					if len(want) == 0 {
						t.Fatal("reference run produced no rows; the comparison proves nothing")
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("absorbed chain emitted %d bytes that differ from the materialized run's %d", len(got), len(want))
					}
					// A resident fold writes nothing of its own to narrow:
					// feeding a blocking parent, both runs write the chain's
					// output once and nothing else.
					if src.name == "hashagg-memory" && shape == "blocking-input" {
						if writes > refWrites {
							t.Errorf("absorbed chain wrote %d cachelines, materialize-every-step %d: want no more", writes, refWrites)
						}
					} else if writes >= refWrites {
						t.Errorf("absorbed chain wrote %d cachelines, materialize-every-step %d: want strictly fewer", writes, refWrites)
					}
				})
			}
		}
	}
}

// TestAbsorbServesStoredInput pins which direction of fusion serves a
// blocking consumer: a chain over a base table is a zero-write view, a
// chain over a Join's or GroupBy's own output is a stored collection of
// the chain's width and row count — never a view that re-applies the
// chain on every re-scan of a wide temp.
func TestAbsorbServesStoredInput(t *testing.T) {
	chain := func(p *Plan) *Plan { return p.Filter(absorbPred).Project(1, 0) }
	isView := func(c storage.Collection) bool {
		switch c.(type) {
		case *chainView:
			return true
		}
		return false
	}
	open := func(t *testing.T, r *rig, p *Plan) (storage.Collection, uint64, func()) {
		ec := r.ctx(bgBudget, 1)
		root, _, err := Compile(ec, p.OrderByWith(sorts.NewExternalMergeSort()))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := ec.Bind(ctx); err != nil {
			t.Fatal(err)
		}
		r.dev.ResetStats()
		c, cleanup, err := inputCollection(ctx, ec, root.Children()[0])
		if err != nil {
			t.Fatal(err)
		}
		return c, r.dev.Stats().Writes, func() {
			cleanup()    //nolint:errcheck
			root.Close() //nolint:errcheck
			if live := ec.LiveTemps(); live != 0 {
				t.Errorf("%d live temps after close", live)
			}
		}
	}

	t.Run("scan", func(t *testing.T) {
		r := newRig(t)
		c, writes, done := open(t, r, chain(Table(loadRows(t, r))))
		defer done()
		if !isView(c) || writes != 0 {
			t.Errorf("chain over a base table is served by %T after %d cacheline writes, want a view and none", c, writes)
		}
	})
	for _, src := range absorbSources[:2] {
		t.Run(src.name, func(t *testing.T) {
			r := newRig(t)
			c, _, done := open(t, r, chain(src.build(t, r)))
			defer done()
			if isView(c) {
				t.Fatalf("chain over %s is served by the view %T", src.name, c)
			}
			if c.RecordSize() != 2*record.AttrSize {
				t.Errorf("stored input is %d bytes wide, want the chain's 16", c.RecordSize())
			}
			it := c.Scan()
			defer it.Close() //nolint:errcheck
			if _, ok := it.(storage.ChunkIterator); !ok {
				t.Errorf("stored input's iterator %T does not read by block chunk", it)
			}
			want := bgFact * (bgDim - int(absorbPred.Value)) / bgDim
			if src.name != "join" {
				want = 300 - int(absorbPred.Value)
			}
			if c.Len() != want {
				t.Errorf("stored input holds %d rows, want the %d the filter keeps", c.Len(), want)
			}
		})
	}
}

// foldGridPlans are sort-based group-bys whose final merge would fan out
// at P > 1 if a fold let a range appender through: one straight over a
// table, one over a Join with an absorbed projection (nested loops: a
// partitioned join's per-worker sub-collections add tail blocks of their
// own at P > 1, which is not the fold's doing) — and the same join
// feeding a planner-owned group-by, whose folding intake merges into the
// chain sink, or, with no chain, into the range-appendable temp a limit
// reads. Budgets leave the pinned sorts a split the allocator makes the
// same at every P. The straight group-by's 500 cyclic groups outnumber
// its 400 partial slots at every P, so every row misses at every P. At
// 24 000 B its 600 slots hold every group at P = 1 but not a P-way
// worker's share (938 vs 4 381 cachelines on blocked). The forced split
// [14 746 + 9 254] leaves the pinned HybS(0.5) fold intermediate merge
// passes, which group their runs at the serial fan-in at every P; when
// the groups followed P, the cell wrote 9 822, 10 170 and 10 505
// cachelines at P = 1, 2 and 4 on blocked.
var foldGridPlans = []struct {
	name   string
	budget int64
	fed    int     // stages the plan feeds
	shares []int64 // a forced split (CompileOptions.shares); nil: the allocator's
	build  func(t *testing.T, r *rig) *Plan
}{
	{"groupby", 400 * aggregate.PartialSize, 0, nil, func(t *testing.T, r *rig) *Plan {
		return Table(loadGrouped(t, r, "in", 6000, 500)).GroupByWith(4, sorts.NewExternalMergeSort())
	}},
	{"join-project-groupby", 6000 * record.Size / 20, 0, nil, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupByWith(3, sorts.NewHybridSort(0.5))
	}},
	{"join-project-groupby-merge-passes", 6000 * record.Size / 20, 0, []int64{14746, 9254}, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupByWith(3, sorts.NewHybridSort(0.5))
	}},
	{"join-groupby-fed-project", 6000 * record.Size / 20, 1, nil, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(starCols...).GroupBy(3).Filter(absorbPred).Project(0, 2, 1)
	}},
	{"join-groupby-fed-temp", 6000 * record.Size / 20, 1, nil, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(starCols...).GroupBy(3).Limit(1000)
	}},
}

// TestFoldSinkIdentityGrid: a folded group-by's output bytes and
// cacheline writes are the same at every parallelism and batch size, on
// every backend. A sink that unwrapped to its destination would hand
// the parallel final merge a range appender at P > 1, and the raw sorted
// records would land in the output around the fold.
func TestFoldSinkIdentityGrid(t *testing.T) {
	for _, backend := range storage.Backends {
		for _, pc := range foldGridPlans {
			t.Run(backend+"/"+pc.name, func(t *testing.T) {
				run := func(par, batch int) ([]byte, uint64) {
					r := rigOn(t, backend, pmem.Config{Capacity: rigDevice})
					res := r.runPlan(t, pc.build(t, r), runSpec{budget: pc.budget, par: par, batch: batch, opts: CompileOptions{shares: pc.shares}})
					if n := fedChoices(res.ex); n != pc.fed {
						t.Fatalf("P=%d batch=%d: %d fed stage(s), want %d:\n%s", par, batch, n, pc.fed, res.ex)
					}
					return res.out, res.stats.Writes
				}
				want, wantWrites := run(1, 1)
				if len(want) == 0 {
					t.Fatal("no groups")
				}
				for _, par := range []int{1, 2, 4} {
					for _, batch := range []int{1, 7, 1024} {
						got, writes := run(par, batch)
						if !bytes.Equal(got, want) {
							t.Fatalf("P=%d batch=%d: output differs from P=1 batch=1 (%d vs %d bytes)", par, batch, len(got), len(want))
						}
						if writes != wantWrites {
							t.Errorf("P=%d batch=%d: %d cacheline writes, P=1 batch=1 wrote %d", par, batch, writes, wantWrites)
						}
					}
				}
			})
		}
	}
}

// TestSinkDestinationFailure: when the collection behind a sink refuses
// the n-th record — mid-merge for the fold, mid-probe for a narrowed
// join, mid-drain of its heap for a resident fold, mid-merge of its runs
// for an evicting one — the run surfaces that one error and leaves no
// temporary behind; so does a cursor-pulled resident fold whose input
// fails mid-pour or whose caller fails mid-Next, and no goroutine
// survives it.
func TestSinkDestinationFailure(t *testing.T) {
	boom := errors.New("device full")
	for _, src := range absorbSources {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", src.name, par), func(t *testing.T) {
				r := newRig(t)
				res := r.runPlan(t, src.build(t, r).Filter(absorbPred).Project(1, 0), runSpec{budget: src.budget, par: par, err: boom,
					out: func(c storage.Collection) storage.Collection {
						return &testkit.FailAfter{Collection: c, N: 25, Err: boom}
					}})
				checkFoldPath(t, src.fold, res.temps)
				if n := len(res.out) / res.root.RecordSize(); n != 25 {
					t.Errorf("%d records reached the output before the failure, want 25", n)
				}
			})
		}
	}
	// A cursor-pulled group-by whose groups fit has no destination of its
	// own: what fails under it is the table it pushes into the fold
	// (mid-pour) or the caller taking its groups (mid-Next).
	for _, where := range []string{"pour", "next"} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("fold-resident/%s/p%d", where, par), func(t *testing.T) {
				r := newRig(t)
				var in storage.Collection = loadGrouped(t, r, "in", bgRows, 300)
				if where == "pour" {
					in = &testkit.FailScan{Collection: in, N: 25, Err: boom}
				}
				taken := 0
				base := runtime.NumGoroutine()
				res := r.runPlan(t, Table(in).GroupHint(300).GroupBy(4).Filter(absorbPred).Project(1, 0), runSpec{budget: 1 << 20, par: par, err: boom, cursor: true,
					take: func([]byte) error {
						if taken++; taken == 25 {
							return boom
						}
						return nil
					}})
				if !res.ex.Choices[0].Fed || res.temps.N(spillTemps...) != 0 {
					t.Errorf("fed=%v, temps %v: want a fold that never left memory", res.ex.Choices[0].Fed, res.temps)
				}
				if where == "next" && taken != 25 {
					t.Errorf("%d groups reached the caller before the failure, want 25", taken)
				}
				testkit.WaitGoroutines(t, base)
			})
		}
	}
}

// BenchmarkJoinEmitProjected: 10 k ⋈ 100 k through nested loops with 10
// of the 20 joined attributes kept by the projection above — absorbed,
// so the join writes 80-byte rows, each projected from the two halves of
// its match: no 160-byte row is built, in DRAM or on the device.
func BenchmarkJoinEmitProjected(b *testing.B) {
	// The star's 120 000 rows (9.6 MB) and one iteration's 100 000
	// 80-byte results.
	r := rigOn(b, "blocked", pmem.Config{Capacity: 32 << 20})
	dim, _, fact := r.loadStar(b, 10000, 100000)
	plan := Table(dim).JoinWith(Table(fact), joins.NewNestedLoops()).Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9)
	b.ReportAllocs()
	r.dev.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec := r.ctx(100000*record.Size/20, 1)
		root, _, err := Compile(ec, plan)
		if err != nil {
			b.Fatal(err)
		}
		out := r.create(b, fmt.Sprintf("out%d", i), root.RecordSize())
		if err := RunCtx(context.Background(), ec, root, out); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if out.Len() != 100000 {
			b.Fatalf("%d joined rows, want 100000", out.Len())
		}
		if err := out.Destroy(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(r.dev.Stats().Writes)/float64(b.N), "cl-writes/op")
}

// joinFoldPlan is the star query of the benchmark's query_star workload
// over r's nDim ⋈ nFact star: dim ⋈ fact, projected to ten attributes,
// grouped on the projected a3 and ordered (the order-by compiles to no
// stage). Left to the planner, the group-by is fed: each match is folded
// into its intake from the join's two halves.
func joinFoldPlan(t testing.TB, r *rig, nDim, nFact int) *Plan {
	dim, _, fact := r.loadStar(t, nDim, nFact)
	return Table(dim).Join(Table(fact)).Project(starCols...).GroupBy(3).OrderBy()
}

// BenchmarkJoinFold: the query_star plan over 10 k ⋈ 100 k, pulled by a
// cursor — the join's matches folded into the group-by's intake, with no
// joined or projected row built for any of them.
func BenchmarkJoinFold(b *testing.B) {
	const nDim, nFact = 10000, 100000
	// The star's 120 000 rows (9.6 MB) with the fold's runs beside them.
	r := rigOn(b, "blocked", pmem.Config{Capacity: 32 << 20})
	plan := joinFoldPlan(b, r, nDim, nFact)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// query_star's budget: 5 % of the fact table.
		res := r.runPlan(b, plan, runSpec{budget: nFact * record.Size / 20, par: 1, cursor: true})
		if len(res.out) == 0 {
			b.Fatal("no groups")
		}
	}
}

// TestJoinFoldAllocs: the fed star query allocates a fixed number of
// times per query, whatever the fact table's row count — no allocation
// per match on the way from the probe to the fold. The groups (one per
// dim key) fit the fold's share, so its intake writes no run at either
// size. The count is 251 run alone and 252 in a run of the whole
// package; slack takes up that much, and under the race detector, whose
// sync.Pool drops some of what it is handed (fmt's printers among it), a
// few dozen from run to run. 15 000 more matches would still add 15 000.
func TestJoinFoldAllocs(t *testing.T) {
	const nDim, budget = 500, 251
	slack := 2.0
	if raceBuild() {
		slack = 64
	}
	var counts []float64
	for _, nFact := range []int{5000, 20000} {
		r := newRig(t)
		plan := joinFoldPlan(t, r, nDim, nFact)
		allocs := testing.AllocsPerRun(3, func() {
			res := r.runPlan(t, plan, runSpec{budget: 1 << 20, par: 1, cursor: true})
			if !res.ex.Choices[len(res.ex.Choices)-1].Fed || res.temps.N(spillTemps...) != 0 {
				t.Fatalf("fact %d: want a fed fold that never left memory:\n%s\ntemps %v", nFact, res.ex, res.temps)
			}
			if n := len(res.out) / record.Size; n != nDim {
				t.Fatalf("fact %d: %d groups, want %d", nFact, n, nDim)
			}
		})
		t.Logf("fact %d: %.0f allocations per query", nFact, allocs)
		if allocs > budget+slack {
			t.Errorf("fact %d: %.0f allocations per query, budget %d", nFact, allocs, budget)
		}
		counts = append(counts, allocs)
	}
	if math.Abs(counts[1]-counts[0]) > slack {
		t.Errorf("%.0f allocations per query over 5 000 fact rows, %.0f over 20 000: a match allocates", counts[0], counts[1])
	}
}

// raceBuild reports whether the test binary runs under the race detector.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
