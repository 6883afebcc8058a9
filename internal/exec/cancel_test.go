package exec

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// The cancellation tests steer the cancel point deterministically: the
// engine and the algorithms only observe cancellation through ctx.Err()
// polls, so a context whose Err flips to Canceled after a fixed number
// of calls (testkit.CancelAfter) cancels the run at a reproducible depth
// — early polls land in run formation/partitioning, later ones in
// merging and probing. Each cancelled run must (a) surface
// context.Canceled, (b) leave zero live temporaries after RunCtx's sweep,
// and (c) leak no goroutines.

// cancelPlanCase builds one cancellable plan over fresh inputs.
type cancelPlanCase struct {
	name   string
	opts   CompileOptions
	fed    int  // stages a clean run must feed, so the cancel points land where the case says
	cursor bool // pulled through a cursor (pullCursor) instead of run into an output
	plan   func(t *testing.T, r *rig) *Plan
}

// pullCursor drives root the way the façade's Rows does: Bind, Open
// (then opened, if set), then one record per pull behind a poll of ctx,
// each handed to take; on any error it closes the tree and sweeps the
// run's temps, and returns that one error.
func pullCursor(ctx context.Context, ec *Ctx, root Operator, opened func(), take func(rec []byte) error) error {
	err := func() error {
		if err := ec.Bind(ctx); err != nil {
			return err
		}
		it, err := root.Open(ctx, ec)
		if err != nil {
			return err
		}
		if opened != nil {
			opened()
		}
		cur := storage.NewCursor(it, ec.PullSize())
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			rec, err := cur.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := take(rec); err != nil {
				return err
			}
		}
	}()
	if err != nil {
		root.Close()    //nolint:errcheck // best-effort cleanup after failure
		ec.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return root.Close()
}

var cancelPlans = []cancelPlanCase{
	{
		// OrderBy over a filter: cancellation lands in replacement-
		// selection run formation or in the merge passes.
		name: "sort",
		plan: func(t *testing.T, r *rig) *Plan {
			in := r.create(t, "in", record.Size)
			if err := record.Generate(8000, 42, in.Append); err != nil {
				t.Fatal(err)
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			return Table(in).Filter(Predicate{Attr: 1, Op: Gt, Value: 1}).OrderByWith(sorts.NewExternalMergeSort())
		},
	},
	{
		// Grace join: cancellation lands in partitioning, the hash-table
		// builds or the probes.
		name: "join",
		plan: func(t *testing.T, r *rig) *Plan {
			dim := r.create(t, "dim", record.Size)
			fact := r.create(t, "fact", record.Size)
			if err := record.GenerateJoin(800, 8000, 42, dim.Append, fact.Append); err != nil {
				t.Fatal(err)
			}
			for _, c := range []storage.Collection{dim, fact} {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			return Table(dim).JoinWith(Table(fact), joins.NewGrace())
		},
	},
	{
		// An underestimated fold: the hint says 8 groups fit, every row is
		// its own. Cancellation lands in the pour, with runs evicted, or in
		// their merge.
		name: "groupby-spill",
		fed:  1,
		plan: func(t *testing.T, r *rig) *Plan {
			in := r.create(t, "in", record.Size)
			if err := record.Generate(8000, 42, in.Append); err != nil {
				t.Fatal(err)
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			return Table(in).GroupHint(8).GroupBy(3)
		},
	},
	{
		// Sort-based group-by with an absorbed chain: cancellation lands in
		// folding run formation, the selection stream or mid-merge, with
		// the chain sink between the merge and the output.
		name: "groupby-fold",
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 2000)).GroupByWith(4, sorts.NewSegmentSort(0.5)).
				Filter(Predicate{Attr: 0, Op: Ge, Value: 100}).Project(0, 1, 2)
		},
	},
	{
		// Nested-loops join narrowed by an absorbed projection: all of its
		// work is probing, so cancellation lands mid-probe with the chain
		// sink as the join's output.
		name: "join-narrowed",
		plan: func(t *testing.T, r *rig) *Plan {
			dim1, _, fact := r.loadStar(t, 800, 8000)
			return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(0, 1, 12, 13)
		},
	},
	{
		// Materialize barriers, one per streaming step: cancellation lands
		// while one barrier drains its child into its temp with the barrier
		// beneath already stored, or in the root's drain to the output.
		name: "materialize",
		opts: CompileOptions{MaterializeEveryStep: true},
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 2000)).Filter(Predicate{Attr: 4, Op: Ge, Value: 1}).Project(0, 4, 1)
		},
	},
	{
		// A streamed child under a blocking consumer: a Limit is no view, so
		// the sort's input is a pipe temp. Cancellation lands while the pipe
		// fills, or in the sort with the pipe stored beneath it.
		name: "pipe",
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 2000)).Limit(7000).OrderByWith(sorts.NewExternalMergeSort())
		},
	},
	{
		// Two fed stages: the join emits into the group-by's intake and
		// the group-by's final merge into the order-by's, which orders by
		// an aggregate (a group-by's result is in key order already).
		// Cancellation lands mid-emit (probe → run formation), in the
		// group-by's merge with the order-by's intake half full, or in the
		// order-by's merge.
		name: "feed-join-groupby-orderby",
		fed:  2,
		plan: func(t *testing.T, r *rig) *Plan {
			dim1, _, fact := r.loadStar(t, 800, 8000)
			return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupBy(3).Project(byAgg...).OrderBy()
		},
	},
	{
		// The same join and group-by under an order-by by the group key,
		// which compiles to no stage: cancellation lands mid-emit or in the
		// group-by's merge into the plan output.
		name: "feed-join-groupby-elided-orderby",
		fed:  1,
		plan: func(t *testing.T, r *rig) *Plan {
			dim1, _, fact := r.loadStar(t, 800, 8000)
			return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupBy(3).OrderBy()
		},
	},
	{
		// A drained stream into a group-by's folding intake, whose merges
		// combine partials into the chain sink: about half the polls are the
		// pour (drain → fold in memory → run), half the merges, so
		// cancellation lands in both.
		name: "feed-fold",
		fed:  1,
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 4000)).Limit(7000).GroupBy(4).
				Filter(Predicate{Attr: 0, Op: Ge, Value: 100}).Project(0, 1, 2)
		},
	},
	{
		// A cursor-pulled group-by whose 40 groups fit its share: the table
		// is pushed into the fold at Open and the groups are served from its
		// heap. Cancellation lands mid-pour or mid-Next; nothing is written.
		name:   "fold-resident",
		fed:    1,
		cursor: true,
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 40)).GroupHint(40).GroupBy(4).
				Filter(Predicate{Attr: 0, Op: Ge, Value: 4}).Project(0, 1, 2)
		},
	},
	{
		// A cursor-pulled group-by whose 2 000 groups outnumber its slots:
		// the fold evicts to runs at Open, merge passes bring them down to
		// one fan-in, and the cursor pulls their final merge. Cancellation
		// lands mid-pour, between merge passes or mid-pull, where the
		// stream owns the last runs.
		name:   "fold-evict",
		fed:    1,
		cursor: true,
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadScattered(t, r, "in", 8000, 4000)).GroupHint(8).GroupBy(4).
				Filter(Predicate{Attr: 0, Op: Ge, Value: 4}).Project(0, 1, 2)
		},
	},
	{
		// A drained stream into an intake: no pipe to fill, cancellation
		// lands in the drain or in the merge.
		name: "feed-limit-orderby",
		fed:  1,
		plan: func(t *testing.T, r *rig) *Plan {
			return Table(loadGrouped(t, r, "in", 8000, 2000)).Limit(7000).OrderBy()
		},
	},
}

// runCancelPlan runs the case's plan once on a fresh rig as s says (its
// context, the error it must end in, a cursor's opened): at 2 % of the
// biggest input, under a cursor if the case says so. A run that
// succeeds must feed the stages the case says it does.
func runCancelPlan(t *testing.T, pc cancelPlanCase, par int, s runSpec) {
	t.Helper()
	r := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice})
	s.budget, s.par, s.opts, s.cursor = 8000*record.Size/50, par, pc.opts, pc.cursor
	res := r.runPlan(t, pc.plan(t, r), s)
	if s.err == nil && fedChoices(res.ex) != pc.fed {
		t.Fatalf("%d fed stage(s), want %d:\n%s", fedChoices(res.ex), pc.fed, res.ex)
	}
}

func TestCancelMidPhaseLeaksNothing(t *testing.T) {
	for _, par := range []int{1, 8} {
		for _, pc := range cancelPlans {
			t.Run(fmt.Sprintf("%s/p%d", pc.name, par), func(t *testing.T) {
				// Calibrate: how many cancellation polls does a clean run of
				// this plan make at this parallelism?
				calib := testkit.NewCounting(context.Background())
				var opened int64
				runCancelPlan(t, pc, par, runSpec{ctx: calib, opened: func() { opened = calib.Polls() }})
				total := calib.Polls()
				if total < 4 {
					t.Fatalf("plan polls cancellation only %d times; inputs too small to steer", total)
				}

				base := runtime.NumGoroutine()
				// Cancel at increasing depths: the first poll (formation or
				// partitioning), mid-run, and late (merging/probing). A
				// cursor polls once per row it pulls, which dwarfs what Open
				// polls, so its Open is steered into as well: the pour, the
				// merge passes and the last poll before the stream opens.
				var at []int64
				for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
					at = append(at, int64(float64(total)*frac))
				}
				if pc.cursor {
					at = append(at, opened/4, opened/2, opened*3/4, opened-1)
				}
				for _, n := range at {
					t.Logf("cancel at poll %d/%d", n, total)
					runCancelPlan(t, pc, par, runSpec{ctx: testkit.CancelAfter(context.Background(), n), err: context.Canceled})
					testkit.WaitGoroutines(t, base)
				}
			})
		}
	}
}

// TestCancelBeforeOpen: a context cancelled before execution fails fast
// and creates nothing.
func TestCancelBeforeOpen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runCancelPlan(t, cancelPlans[0], 1, runSpec{ctx: ctx, err: context.Canceled})
}

// TestDeadlineExceededSurfaces: deadline expiry is reported as
// context.DeadlineExceeded, the error cmd/wlquery's -timeout maps to a
// clean exit.
func TestDeadlineExceededSurfaces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	runCancelPlan(t, cancelPlans[1], 1, runSpec{ctx: ctx, err: context.DeadlineExceeded})
}
