package exec

import (
	"bytes"
	"context"
	"math"
	"testing"

	"wlpm/internal/joins"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/stats"
	"wlpm/internal/testkit"
)

// statsCtx is a rig context wired to an auto-collecting statistics
// cache, the configuration the façade hands the planner.
func (r *rig) statsCtx(budget int64, par int) *Ctx {
	ctx := r.ctx(budget, par)
	ctx.Stats = stats.NewCache(true)
	return ctx
}

// TestStatsReplaceTextbookSelectivities pins the tentpole's estimate
// upgrade: with column statistics a range filter's output estimate comes
// from the histogram (~25% for key < n/4) instead of the fixed 0.5.
func TestStatsReplaceTextbookSelectivities(t *testing.T) {
	const n = 8000
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 3, in.Append); err != nil {
		t.Fatal(err)
	}
	in.Close()
	plan := Table(in).Filter(Predicate{Attr: 0, Op: Lt, Value: n / 4}).OrderBy()

	_, exDefault, err := Compile(r.ctx(64<<10, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := exDefault.Choices[0].InputRows; got != n/2 {
		t.Fatalf("textbook estimate = %d rows, want the fixed-selectivity %d", got, n/2)
	}

	_, exStats, err := Compile(r.statsCtx(64<<10, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(exStats.Choices[0].InputRows)
	if math.Abs(got-n/4) > 0.15*n/4 {
		t.Errorf("histogram estimate = %.0f rows, want ~%d (±15%%)", got, n/4)
	}
}

// TestRangeBoundsPropagateThroughFilters pins the histogram-restriction
// upgrade: after a range filter the surviving statistics describe the
// conditional distribution, so a second range predicate on the same
// column is estimated against the filtered domain. With uniform keys
// 0..n-1, `a0 < n/2` then `a0 < n/4` keeps n/4 rows; the old
// distinct-clamp-only propagation kept the base histogram and estimated
// (n/2)·FracLE(n/4) = n/8 — off by 2×.
func TestRangeBoundsPropagateThroughFilters(t *testing.T) {
	const n = 8000
	cases := []struct {
		name  string
		preds []Predicate
		want  float64
	}{
		{"lt-then-lt", []Predicate{
			{Attr: 0, Op: Lt, Value: n / 2},
			{Attr: 0, Op: Lt, Value: n / 4},
		}, n / 4},
		{"ge-then-lt", []Predicate{
			{Attr: 0, Op: Ge, Value: n / 2},
			{Attr: 0, Op: Lt, Value: 3 * n / 4},
		}, n / 4},
		{"le-then-ge", []Predicate{
			{Attr: 0, Op: Le, Value: n / 2},
			{Attr: 0, Op: Ge, Value: n / 4},
		}, n / 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			in := r.create(t, "in", record.Size)
			if err := record.Generate(n, 3, in.Append); err != nil {
				t.Fatal(err)
			}
			in.Close()
			plan := Table(in)
			for _, p := range tc.preds {
				plan = plan.Filter(p)
			}
			ctx := r.statsCtx(64<<10, 1)
			root, ex, err := Compile(ctx, plan.OrderBy())
			if err != nil {
				t.Fatal(err)
			}
			est := float64(ex.Choices[0].InputRows)
			if math.Abs(est-tc.want) > 0.15*tc.want {
				t.Errorf("chained-filter estimate = %.0f rows, want ~%.0f (±15%%)", est, tc.want)
			}
			// Accuracy against the actual surviving rows, the satellite's
			// acceptance check: estimate within 15% of what the filters keep.
			out := r.create(t, "out", record.Size)
			if err := RunCtx(context.Background(), ctx, root, out); err != nil {
				t.Fatal(err)
			}
			act := float64(out.Len())
			if math.Abs(est-act) > 0.15*act {
				t.Errorf("estimate %.0f vs actual %.0f rows (>15%% off)", est, act)
			}
			t.Logf("est %.0f vs actual %.0f", est, act)
		})
	}
}

// TestImpossibleRangeEstimatesToFloor: contradictory range predicates
// drive the estimate to the 1-row floor instead of a histogram artifact.
func TestImpossibleRangeEstimatesToFloor(t *testing.T) {
	const n = 4000
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 5, in.Append); err != nil {
		t.Fatal(err)
	}
	in.Close()
	plan := Table(in).
		Filter(Predicate{Attr: 0, Op: Lt, Value: n / 4}).
		Filter(Predicate{Attr: 0, Op: Ge, Value: n / 2}).
		OrderBy()
	_, ex, err := Compile(r.statsCtx(64<<10, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Choices[0].InputRows; got != 1 {
		t.Errorf("impossible-range estimate = %d rows, want the 1-row floor", got)
	}
}

// TestStatsMakeGroupHintOptional: the key column's distinct count from
// the statistics sizes the group-by's fold with no GroupHint at all — the
// planner sees every group fit, so the fold stays in memory and writes no
// run — and the result stays byte-identical to the sort-based plan.
func TestStatsMakeGroupHintOptional(t *testing.T) {
	const n, groups = 3000, 40
	r := newRig(t)
	in := loadGrouped(t, r, "in", n, groups)
	ctx := r.statsCtx(1<<20, 1)
	counted := testkit.CountTemps(ctx.Factory)
	ctx.Factory = counted
	root, ex, err := Compile(ctx, Table(in).GroupBy(4))
	if err != nil {
		t.Fatal(err)
	}
	if est := root.(*Sort).st.groupEst; est != groups || len(ex.Choices) != 1 || !ex.Choices[0].Fed {
		t.Fatalf("hintless plan with statistics estimates %d groups and chose %+v, want %d and the fed group-by", est, ex.Choices, groups)
	}
	out := r.create(t, "fold", record.Size)
	if err := RunCtx(context.Background(), ctx, root, out); err != nil {
		t.Fatal(err)
	}
	if ex.Choices[0].ActualRows != n {
		t.Errorf("actual rows = %d, want %d", ex.Choices[0].ActualRows, n)
	}
	if counted.N(spillTemps...) != 0 {
		t.Errorf("a fold the statistics said fits created temps %v", counted)
	}

	ctx2 := r.ctx(1<<20, 1)
	root2, _, err := Compile(ctx2, Table(in).GroupByWith(4, sorts.NewExternalMergeSort()))
	if err != nil {
		t.Fatal(err)
	}
	out2 := r.create(t, "sorted", record.Size)
	if err := RunCtx(context.Background(), ctx2, root2, out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBytes(t, out), readBytes(t, out2)) {
		t.Fatal("statistics-sized fold output differs from sort-based group-by")
	}
}

// TestJoinReorderSmallestBuildFirst: a two-table join written with the
// fact table as the build side is flipped dimension-first, the
// compensating projection restores the written column layout, and the
// reordered plan prices no worse than the written order.
func TestJoinReorderSmallestBuildFirst(t *testing.T) {
	r := newRig(t)
	dim, _, fact := r.loadStar(t, testDim, testFact)
	plan := Table(fact).Join(Table(dim)).OrderBy() // fact as build side: the wrong way round

	ctx := r.statsCtx(testBudget, 1)
	rootRe, exRe, err := Compile(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !exRe.Reordered {
		t.Fatal("planner kept the fact table as the build side")
	}
	join := exRe.Choices[0]
	if join.Operator != "Join" || join.Buffers >= join.RightBuf {
		t.Fatalf("reordered join build side t=%.0f not smaller than probe v=%.0f", join.Buffers, join.RightBuf)
	}

	ctxW := r.statsCtx(testBudget, 1)
	_, exW, err := CompileWith(ctxW, plan, CompileOptions{asWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	written := exW.Choices[0]
	if join.Cost > written.Cost {
		t.Errorf("reordered join priced %.4g, written order %.4g: reorder made it worse", join.Cost, written.Cost)
	}
	t.Logf("join cost: reordered %.4g vs written %.4g", join.Cost, written.Cost)

	// Byte-identity through the canonicalizing order-by: the compensating
	// projection must restore the written fact‖dim layout exactly.
	outRe := r.create(t, "reordered", 2*record.Size)
	if err := RunCtx(context.Background(), ctx, rootRe, outRe); err != nil {
		t.Fatal(err)
	}
	ctxW2 := r.statsCtx(testBudget, 1)
	rootW, _, err := CompileWith(ctxW2, plan, CompileOptions{asWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	outW := r.create(t, "written", 2*record.Size)
	if err := RunCtx(context.Background(), ctxW2, rootW, outW); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBytes(t, outRe), readBytes(t, outW)) {
		t.Fatal("reordered join output differs from the written-order plan")
	}
}

// TestJoinReorderStarChain reorders a three-table chain written
// fact-first and checks the result (through the full star pipeline)
// against the written order and against the hand-pinned plan.
func TestJoinReorderStarChain(t *testing.T) {
	build := func(r *rig, opts CompileOptions, pinJoin joins.Algorithm) []byte {
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		inner := Table(fact).JoinWith(Table(dim1), pinJoin) // fact‖dim1
		star := Table(dim2).JoinWith(inner, pinJoin)        // dim2‖fact‖dim1
		plan := star.Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).GroupBy(4).OrderBy()
		ctx := r.statsCtx(testBudget, 1)
		root, ex, err := CompileWith(ctx, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pinJoin == nil && !opts.asWritten && !ex.Reordered {
			t.Fatal("three-table chain written fact-first was not reordered")
		}
		if pinJoin != nil && ex.Reordered {
			t.Fatal("pinned join chain was reordered")
		}
		out := r.create(t, "out", record.Size)
		if err := RunCtx(context.Background(), ctx, root, out); err != nil {
			t.Fatal(err)
		}
		return readBytes(t, out)
	}

	reordered := build(newRig(t), CompileOptions{}, nil)
	written := build(newRig(t), CompileOptions{asWritten: true}, nil)
	pinned := build(newRig(t), CompileOptions{}, joins.NewGrace())
	if len(reordered) == 0 {
		t.Fatal("star chain produced no output")
	}
	if !bytes.Equal(reordered, written) {
		t.Fatal("reordered star output differs from the written-order plan")
	}
	if !bytes.Equal(reordered, pinned) {
		t.Fatal("reordered star output differs from the pinned-plan variant")
	}

	// The chosen order must price no worse than the written order: sum
	// the join choices of both compilations of the same star plan.
	joinCost := func(opts CompileOptions) float64 {
		r := newRig(t)
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		inner := Table(fact).Join(Table(dim1))
		star := Table(dim2).Join(inner)
		plan := star.Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).GroupBy(4).OrderBy()
		_, ex, err := CompileWith(r.statsCtx(testBudget, 1), plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, c := range ex.Choices {
			if c.Operator == "Join" {
				sum += c.Cost
			}
		}
		return sum
	}
	re, wr := joinCost(CompileOptions{}), joinCost(CompileOptions{asWritten: true})
	if re > wr {
		t.Errorf("reordered star joins priced %.4g, written order %.4g: reorder made it worse", re, wr)
	}
	t.Logf("star join cost: reordered %.4g vs written %.4g", re, wr)
}

// TestPinnedChoicesCarryCosts pins satellite #3: Explain no longer omits
// the predicted cost of pinned choices, so pinned and planner-chosen
// plans can be compared in the same units.
func TestPinnedChoicesCarryCosts(t *testing.T) {
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	ctx := r.ctx(testBudget, 1)
	_, ex, err := Compile(ctx, starPlan(dim1, dim2, fact, sorts.NewSegmentSort(0.4), joins.NewGrace()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Choices) != 4 {
		t.Fatalf("star plan has %d choices, want 4", len(ex.Choices))
	}
	for _, c := range ex.Choices {
		if !c.Pinned {
			t.Errorf("%s choice not marked pinned", c.Operator)
		}
		if c.Cost <= 0 {
			t.Errorf("pinned %s → %s has no cost", c.Operator, c.Algorithm)
		}
		if c.ActualRows != -1 {
			t.Errorf("%s actual rows %d before any run, want -1", c.Operator, c.ActualRows)
		}
	}
}

// TestEstimateVsActualWithStats runs the star pipeline across the
// planner grid's memory fractions with statistics enabled and asserts
// every blocking stage's estimated input cardinality lands within 20% of
// the actual rows observed at Open — the estimate-vs-actual face of the
// planner grid tests.
func TestEstimateVsActualWithStats(t *testing.T) {
	for _, frac := range plannerGrid.fracs {
		budget := int64(float64(testFact*record.Size) * frac)
		if budget < record.Size {
			budget = record.Size
		}
		r := newRig(t)
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		ctx := r.statsCtx(budget, 1)
		root, ex, err := Compile(ctx, starPlan(dim1, dim2, fact, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		out := r.create(t, "out", record.Size)
		if err := RunCtx(context.Background(), ctx, root, out); err != nil {
			t.Fatal(err)
		}
		for _, c := range ex.Choices {
			if c.ActualRows < 0 {
				t.Errorf("mem=%.0f%%: %s choice never observed its input", frac*100, c.Operator)
				continue
			}
			est, act := float64(c.InputRows), float64(c.ActualRows)
			if math.Abs(est-act) > 0.2*act {
				t.Errorf("mem=%.0f%%: %s est %0.f rows vs actual %.0f (>20%% off)", frac*100, c.Operator, est, act)
			}
			t.Logf("mem=%.0f%%: %-8s est %6.0f act %6.0f (%s)", frac*100, c.Operator, est, act, c.Algorithm)
		}
	}
}

// TestRunClampsEstimatesAtOpen: when the compile-time estimate is badly
// wrong (textbook selectivity, no statistics), the blocking operator
// re-plans from the actual materialized cardinality at Open, at the share
// Compile gave it: the Explain choice records the actual rows, the price
// of the stage at them, and the algorithm that price picks.
func TestRunClampsEstimatesAtOpen(t *testing.T) {
	const n, kept = 20000, 10
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 11, in.Append); err != nil {
		t.Fatal(err)
	}
	in.Close()
	// Textbook estimate for < is 0.5·n; the predicate actually keeps 10
	// rows. A sort sized for 10000 rows is the wrong pick for 10.
	plan := Table(in).Filter(Predicate{Attr: 0, Op: Lt, Value: kept}).OrderBy()
	ctx := r.ctx(int64(n*record.Size/100), 1)
	root, ex, err := Compile(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	c := ex.Choices[0]
	if c.InputRows != n/2 {
		t.Fatalf("compile-time estimate %d, want textbook %d", c.InputRows, n/2)
	}
	compiled := c.Algorithm
	out := r.create(t, "out", record.Size)
	if err := RunCtx(context.Background(), ctx, root, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != kept {
		t.Fatalf("filter kept %d rows, want %d", out.Len(), kept)
	}
	if c.ActualRows != kept {
		t.Errorf("choice actual rows = %d, want %d", c.ActualRows, kept)
	}
	st := root.(*Sort).st
	if c.Share != ex.StageShares[0] {
		t.Errorf("stage ran at share %d B, compiled %d B", c.Share, ex.StageShares[0])
	}
	pl := st.plan(buffers(kept, record.Size, r.fac.BlockSize()), 0, allocBuffers(ex.StageShares[0], r.fac.BlockSize()))
	if c.Cost != pl.cost {
		t.Errorf("choice cost %.6g, want the stage priced at %d rows and its compiled share: %.6g", c.Cost, kept, pl.cost)
	}
	if want := st.sortFor(pl).Name(); c.Algorithm != want || c.Replanned != (want != compiled) {
		t.Errorf("choice ran %s (replanned=%v), the price at %d rows picks %s over the compiled %s", c.Algorithm, c.Replanned, kept, want, compiled)
	}
	t.Logf("clamp: est %d → act %d, %s → %s, cost %.3g", c.InputRows, c.ActualRows, compiled, c.Algorithm, c.Cost)
}
