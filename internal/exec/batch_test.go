package exec

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"context"

	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// The batch engine's hard invariant: batching is an interpretation-layer
// change only. For every plan shape, memory budget and parallelism level,
// the output bytes and the simulated cacheline writes must be identical at
// every batch size, because all device writes flow through the same
// per-record Append path. Device reads are identical too for every shape
// except a Limit above a Filter, where asking the scan for the records
// still wanted bounds — but cannot exactly reproduce — the record
// engine's lazy read-ahead (see the read-accounting caveat in README's
// Batch execution section).

// batchGridSizes is the batch-size grid: 1 is the record engine (the
// baseline every other size is compared against), 7 forces ragged batch
// boundaries everywhere, 1024 is the default.
var batchGridSizes = []int{7, 1024}

// batchCase is one plan shape of the identity grid.
type batchCase struct {
	name       string
	exactReads bool  // reads must match the record engine exactly
	budget     int64 // plan memory budget
	opts       CompileOptions
	fold       foldPath // a planner-owned group-by's path
	build      func(t *testing.T, r *rig) *Plan
}

const (
	bgRows   = 2000
	bgDim    = 100
	bgFact   = 1000
	bgBudget = int64(bgFact * record.Size / 20) // spill regime, as in exec_test
)

// loadRows fills a fresh collection with bgRows generated records.
func loadRows(t *testing.T, r *rig) storage.Collection {
	t.Helper()
	in := r.create(t, "in", record.Size)
	if err := record.Generate(bgRows, 21, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

var batchPred = Predicate{Attr: 1, Op: Ge, Value: 100}

var batchCases = []batchCase{
	{
		name: "scan", exactReads: true, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)) },
	},
	{
		name: "scan-filter", exactReads: true, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)).Filter(batchPred) },
	},
	{
		name: "scan-project", exactReads: true, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)).Project(3, 0, 5) },
	},
	{
		name: "limit-scan", exactReads: true, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)).Limit(50) },
	},
	{
		name: "limit-project-scan", exactReads: true, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)).Project(0, 2, 4).Limit(64) },
	},
	{
		// The documented exception: a Limit above a Filter asks the scan
		// for the records it still wants, which bounds but cannot exactly
		// match the record engine's lazy read-ahead. Writes stay exact.
		name: "limit-project-filter-scan", exactReads: false, budget: 8 << 10,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadRows(t, r)).Filter(batchPred).Project(0, 1, 2).Limit(100)
		},
	},
	{
		name: "filter-orderby", exactReads: true, budget: bgBudget,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadRows(t, r)).Filter(batchPred).OrderByWith(sorts.NewExternalMergeSort())
		},
	},
	{
		name: "limit-orderby", exactReads: true, budget: bgBudget,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadRows(t, r)).OrderByWith(sorts.NewExternalMergeSort()).Limit(32)
		},
	},
	{
		name: "groupby-sort", exactReads: true, budget: bgBudget,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", bgRows, 40)).GroupByWith(4, sorts.NewExternalMergeSort())
		},
	},
	{
		// The fold of 40 groups stays in memory; the fold of 1 000 (a
		// hint of 100) evicts to runs.
		name: "fold-resident", exactReads: true, budget: 1 << 20, fold: foldResident,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", bgRows, 40)).GroupHint(40).GroupBy(4)
		},
	},
	{
		name: "fold-evict", exactReads: true, budget: 16 << 10, fold: foldEvict,
		build: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 4000, 1000)).GroupHint(100).GroupBy(4)
		},
	},
	{
		name: "join", exactReads: true, budget: bgBudget,
		build: func(t *testing.T, r *rig) *Plan {
			dim1, _, fact := r.loadStar(t, bgDim, bgFact)
			return Table(dim1).JoinWith(Table(fact), joins.NewGrace())
		},
	},
	{
		name: "star", exactReads: true, budget: bgBudget,
		build: func(t *testing.T, r *rig) *Plan {
			dim1, dim2, fact := r.loadStar(t, bgDim, bgFact)
			return starPlan(dim1, dim2, fact, sorts.NewExternalMergeSort(), joins.NewGrace())
		},
	},
	{
		name: "star-materialized", exactReads: true, budget: bgBudget,
		opts: CompileOptions{MaterializeEveryStep: true},
		build: func(t *testing.T, r *rig) *Plan {
			dim1, dim2, fact := r.loadStar(t, bgDim, bgFact)
			return starPlan(dim1, dim2, fact, sorts.NewExternalMergeSort(), joins.NewGrace())
		},
	},
}

// runBatchCase executes one grid cell on a fresh rig and returns the
// output bytes and the device stats of the run itself (loading excluded).
func runBatchCase(t *testing.T, pc batchCase, par, batchSize int) ([]byte, pmem.Stats) {
	t.Helper()
	r := newRig(t)
	res := r.runPlan(t, pc.build(t, r), runSpec{budget: pc.budget, par: par, batch: batchSize, opts: pc.opts})
	if res.ex.BatchSize != batchSize {
		t.Fatalf("Explain.BatchSize = %d, want %d", res.ex.BatchSize, batchSize)
	}
	checkFoldPath(t, pc.fold, res.temps)
	return res.out, res.stats
}

// TestBatchRecordIdentityGrid runs every plan shape of the grid at P ∈
// {1, 8} and compares each batch size against the record engine
// (BatchSize 1): output bytes identical, simulated cacheline writes
// identical, and — for every shape without a Limit above a Filter —
// simulated reads identical too.
func TestBatchRecordIdentityGrid(t *testing.T) {
	for _, pc := range batchCases {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/p%d", pc.name, par), func(t *testing.T) {
				wantOut, wantSt := runBatchCase(t, pc, par, 1)
				for _, bs := range batchGridSizes {
					gotOut, gotSt := runBatchCase(t, pc, par, bs)
					if !bytes.Equal(gotOut, wantOut) {
						t.Errorf("batch=%d: output differs from record engine (%d vs %d bytes)",
							bs, len(gotOut), len(wantOut))
					}
					if gotSt.Writes != wantSt.Writes {
						t.Errorf("batch=%d: %d cacheline writes, record engine wrote %d",
							bs, gotSt.Writes, wantSt.Writes)
					}
					if pc.exactReads && gotSt.Reads != wantSt.Reads {
						t.Errorf("batch=%d: %d cacheline reads, record engine read %d",
							bs, gotSt.Reads, wantSt.Reads)
					}
					if !pc.exactReads && gotSt.Reads > wantSt.Reads+wantSt.Reads/2 {
						t.Errorf("batch=%d: reads %d exceed 1.5× the record engine's %d — hint no longer bounds read-ahead",
							bs, gotSt.Reads, wantSt.Reads)
					}
				}
			})
		}
	}
}

// TestBatchSizeOneDegenerates pins that BatchSize 1 really is the record
// engine: every batch the root produces holds exactly one record.
func TestBatchSizeOneDegenerates(t *testing.T) {
	r := newRig(t)
	in := loadRows(t, r)
	ec := r.ctx(8<<10, 1)
	ec.BatchSize = 1
	root, _, err := Compile(ec, Table(in).Filter(batchPred).Project(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	it, err := root.Open(ctx, ec)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	ci := storage.Chunked(it)
	n := 0
	for {
		b, err := ci.NextChunk(ec.PullSize())
		if err != nil {
			break
		}
		if len(b) != 1 {
			t.Fatalf("BatchSize=1 produced a %d-record batch", len(b))
		}
		n += len(b)
	}
	if n == 0 {
		t.Fatal("no records produced")
	}
}

// batchCancelCases are cancellable plans spanning the streaming drain
// (small batches, many drain polls) and the blocking algorithms (default
// batches, polls inside the operators).
var batchCancelCases = []struct {
	name      string
	batchSize int
	plan      cancelPlanCase
}{
	{
		name: "stream-batch7", batchSize: 7,
		plan: cancelPlanCase{
			name: "stream",
			plan: func(t *testing.T, r *rig) *Plan {
				in := r.create(t, "in", record.Size)
				if err := record.Generate(8000, 42, in.Append); err != nil {
					t.Fatal(err)
				}
				if err := in.Close(); err != nil {
					t.Fatal(err)
				}
				return Table(in).Filter(Predicate{Attr: 1, Op: Gt, Value: 1}).Project(0, 1, 2)
			},
		},
	},
	{
		// A bare table: no chain or kernel polls, so only the plan drain's
		// probe sees a cancel.
		name: "scan-batch7", batchSize: 7,
		plan: cancelPlanCase{
			name: "scan",
			plan: func(t *testing.T, r *rig) *Plan { return Table(loadRows(t, r)) },
		},
	},
	{
		// A filter that passes nothing: one pull of the stream loops over
		// every child chunk, so only the chain iterator's own probe sees a
		// cancel.
		name: "stream-reject-batch7", batchSize: 7,
		plan: cancelPlanCase{
			name: "stream-reject",
			plan: func(t *testing.T, r *rig) *Plan {
				return Table(loadRows(t, r)).Filter(Predicate{Attr: 1, Op: Lt, Value: 0})
			},
		},
	},
	{name: "sort-batch1024", batchSize: DefaultBatchSize, plan: cancelPlans[0]},
	{name: "join-batch1024", batchSize: DefaultBatchSize, plan: cancelPlans[1]},
	{name: "spill-batch7", batchSize: 7, plan: cancelPlans[2]},
}

// TestBatchCancelMidBatchLeaksNothing steers cancellation into the middle
// of batch production and consumption: each cancelled run must surface
// context.Canceled, leave zero live temporaries and leak no goroutines —
// at small and default batch sizes, serial and parallel.
func TestBatchCancelMidBatchLeaksNothing(t *testing.T) {
	for _, par := range []int{1, 8} {
		for _, cc := range batchCancelCases {
			t.Run(fmt.Sprintf("%s/p%d", cc.name, par), func(t *testing.T) {
				// Each run goes to a fresh rig at the case's batch size.
				run := func(s runSpec) {
					r := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice})
					s.budget, s.par, s.batch = 8000*record.Size/50, par, cc.batchSize
					r.runPlan(t, cc.plan.plan(t, r), s)
				}
				calib := testkit.NewCounting(context.Background())
				run(runSpec{ctx: calib})
				total := calib.Polls()
				if total < 4 {
					t.Fatalf("plan polls cancellation only %d times; inputs too small to steer", total)
				}
				base := runtime.NumGoroutine()
				for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
					n := int64(float64(total) * frac)
					t.Logf("cancel at poll %d/%d", n, total)
					run(runSpec{ctx: testkit.CancelAfter(context.Background(), n), err: context.Canceled})
					testkit.WaitGoroutines(t, base)
				}
			})
		}
	}
}
