package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
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
		dim1, _, fact := r.loadStar(t, bgDim, bgFact)
		return Table(dim1).JoinWith(Table(fact), joins.NewGrace())
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

// absorbPred keeps most but not all rows of every source: a0 is the
// join key over [0, bgDim) or the group key over [0, groups).
var absorbPred = Predicate{Attr: 0, Op: Ge, Value: 20}

// absorbChains each drop a column or a row; the last filters a column
// the projection beneath it moved, so the predicate must be mapped back.
var absorbChains = []struct {
	name  string
	apply func(p *Plan) *Plan
}{
	{"project", func(p *Plan) *Plan { return p.Project(0, 3, 1) }},
	{"filter", func(p *Plan) *Plan { return p.Filter(absorbPred) }},
	{"filter-project", func(p *Plan) *Plan { return p.Filter(absorbPred).Project(1, 0) }},
	{"project-filter-project", func(p *Plan) *Plan {
		return p.Project(3, 1, 0).Filter(Predicate{Attr: 2, Op: Ge, Value: 20}).Project(2, 0)
	}},
}

// drainCursor opens root and pulls it to the end the way the façade's
// Rows cursor does.
func drainCursor(t *testing.T, ec *Ctx, root Operator) []byte {
	t.Helper()
	ctx := context.Background()
	if err := ec.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if err := root.Open(ctx, ec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cur := NewCursor(root)
	for {
		rec, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(rec)
	}
	if err := root.Close(); err != nil {
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
		for _, ch := range absorbChains {
			for _, shape := range []string{"blocking-input", "cursor", "root"} {
				t.Run(fmt.Sprintf("%s/%s/%s", src.name, ch.name, shape), func(t *testing.T) {
					run := func(opts CompileOptions) ([]byte, uint64) {
						r := newRig(t)
						plan := src.build(t, r)
						if opts.MaterializeEveryStep && src.fold == foldEvict {
							plan = plan.left.GroupByWith(plan.attr, sorts.NewExternalMergeSort())
						}
						plan = ch.apply(plan)
						if shape == "blocking-input" {
							plan = plan.OrderByWith(sorts.NewExternalMergeSort())
						}
						counted := countTemps(r.fac)
						ec := NewCtx(counted, src.budget, 1)
						if !opts.MaterializeEveryStep && shape != "blocking-input" { // the pinned order-by forms runs of its own
							defer checkFoldPath(t, src.fold, counted)
						}
						root, _, err := CompileWith(ec, plan, opts)
						if err != nil {
							t.Fatal(err)
						}
						if n := streamingOps(root); !opts.MaterializeEveryStep && n != 0 {
							t.Fatalf("%d Filter/Project operators survive in %s", n, root.Name())
						}
						var got []byte
						r.dev.ResetStats()
						if shape == "cursor" && !opts.MaterializeEveryStep {
							got = drainCursor(t, ec, root)
						} else {
							out := r.create(t, "out", root.RecordSize())
							if err := RunCtx(context.Background(), ec, root, out); err != nil {
								t.Fatal(err)
							}
							got = readBytes(t, out)
						}
						writes := r.dev.Stats().Writes
						if live := ec.LiveTemps(); live != 0 {
							t.Fatalf("%d live temps after the run", live)
						}
						return got, writes
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
// same at every P and no intermediate merge pass, whose grouping follows
// P — and, folding, so do its writes. The straight group-by's 500
// cyclic groups outnumber its 400 partial slots at every P, so every row
// misses at every P. At 24 000 B its 600 slots hold every group at P = 1
// but not a P-way worker's share (938 vs 4 381 cachelines on blocked);
// at 12 000 B, the 300 slots 80-byte partials had there, its fan-in of
// 11 buffers leaves an intermediate merge pass (5 007, 5 320, 6 259 at
// P = 1, 2, 4).
var foldGridPlans = []struct {
	name   string
	budget int64
	fed    int // stages the plan feeds
	build  func(t *testing.T, r *rig) *Plan
}{
	{"groupby", 400 * aggregate.PartialSize, 0, func(t *testing.T, r *rig) *Plan {
		return Table(loadGrouped(t, r, "in", 6000, 500)).GroupByWith(4, sorts.NewExternalMergeSort())
	}},
	{"join-project-groupby", 6000 * record.Size / 20, 0, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupByWith(3, sorts.NewHybridSort(0.5))
	}},
	{"join-groupby-fed-project", 6000 * record.Size / 20, 1, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, 300, 6000)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).
			Project(starCols...).GroupBy(3).Filter(absorbPred).Project(0, 2, 1)
	}},
	{"join-groupby-fed-temp", 6000 * record.Size / 20, 1, func(t *testing.T, r *rig) *Plan {
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
					dev := pmem.MustOpen(pmem.Config{Capacity: 256 << 20})
					fac, err := all.New(backend, dev, 0)
					if err != nil {
						t.Fatal(err)
					}
					r := &rig{dev: dev, fac: fac}
					ec := r.ctx(pc.budget, par)
					ec.BatchSize = batch
					root, ex, err := Compile(ec, pc.build(t, r))
					if err != nil {
						t.Fatal(err)
					}
					out := r.create(t, "out", root.RecordSize())
					dev.ResetStats()
					if err := RunCtx(context.Background(), ec, root, out); err != nil {
						t.Fatal(err)
					}
					if n := fedChoices(ex); n != pc.fed {
						t.Fatalf("P=%d batch=%d: %d fed stage(s), want %d:\n%s", par, batch, n, pc.fed, ex)
					}
					return readBytes(t, out), dev.Stats().Writes
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

// failAfter is a plan output whose Append fails on the n-th record.
type failAfter struct {
	storage.Collection
	n   int
	err error
}

func (f *failAfter) Append(rec []byte) error {
	if f.n--; f.n < 0 {
		return f.err
	}
	return f.Collection.Append(rec)
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
				counted := countTemps(r.fac)
				defer checkFoldPath(t, src.fold, counted)
				ec := NewCtx(counted, src.budget, par)
				root, _, err := Compile(ec, src.build(t, r).Filter(absorbPred).Project(1, 0))
				if err != nil {
					t.Fatal(err)
				}
				out := r.create(t, "out", root.RecordSize())
				err = RunCtx(context.Background(), ec, root, &failAfter{Collection: out, n: 25, err: boom})
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the destination's error", err)
				}
				if out.Len() != 25 {
					t.Errorf("%d records reached the output before the failure, want 25", out.Len())
				}
				if live := ec.LiveTemps(); live != 0 {
					t.Errorf("failed run left %d live temps", live)
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
					in = &failingScan{Collection: in, n: 25, err: boom}
				}
				counted := countTemps(r.fac)
				ec := NewCtx(counted, 1<<20, par)
				root, ex, err := Compile(ec, Table(in).GroupHint(300).GroupBy(4).Filter(absorbPred).Project(1, 0))
				if err != nil {
					t.Fatal(err)
				}
				taken := 0
				base := runtime.NumGoroutine()
				err = pullCursor(context.Background(), ec, root, nil, func([]byte) error {
					if taken++; taken == 25 {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the injected failure", err)
				}
				if !ex.Choices[0].Fed || len(counted.n) != 0 {
					t.Errorf("fed=%v, temps %v: want a fold that never left memory", ex.Choices[0].Fed, counted.n)
				}
				if where == "next" && taken != 25 {
					t.Errorf("%d groups reached the caller before the failure, want 25", taken)
				}
				if live := ec.LiveTemps(); live != 0 {
					t.Errorf("failed run left %d live temps", live)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// failingScan is a base table whose scans fail on the n-th record.
type failingScan struct {
	storage.Collection
	n   int
	err error
}

func (c *failingScan) Scan() storage.Iterator {
	return &failingIter{Iterator: c.Collection.Scan(), n: c.n, err: c.err}
}

type failingIter struct {
	storage.Iterator
	n   int
	err error
}

func (it *failingIter) Next() ([]byte, error) {
	if it.n--; it.n < 0 {
		return nil, it.err
	}
	return it.Iterator.Next()
}

// BenchmarkJoinEmitProjected: 10 k ⋈ 100 k through nested loops with 10
// of the 20 joined attributes kept by the projection above — absorbed,
// so the join writes 80-byte rows and the 160-byte ones never exist.
func BenchmarkJoinEmitProjected(b *testing.B) {
	r := newRig(b)
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
