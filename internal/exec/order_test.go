package exec

import (
	"bytes"
	"strings"
	"testing"

	"wlpm/internal/record"
	"wlpm/internal/sorts"
)

// TestOrderByElision: a planner-owned order-by over a result already in
// the record order compiles to no stage. Over a group-by — directly,
// through a filter, through a projection that keeps a0 first, and through
// a limit — Explain shows one stage and one choice fewer than the same
// plan with the order-by pinned, and notes why; the output is the
// materialize-every-step reference's, byte for byte, at every P and batch
// size, through RunCtx and a cursor alike. A projection that puts another
// attribute first, a pinned order-by, an order-by over a join (whose
// clusters are not an order) and the reference itself keep the stage.
func TestOrderByElision(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, testDim, testFact)
	grouped := func() *Plan { return Table(dim1).Join(Table(fact)).Project(starCols...).GroupBy(3) }
	pinned := sorts.NewExternalMergeSort()
	explain := func(p *Plan, opts CompileOptions) *Explain {
		t.Helper()
		_, ex, err := CompileWith(r.ctx(testBudget, 1), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	run := func(p *Plan, par, batch int, opts CompileOptions, cursor bool) []byte {
		t.Helper()
		return r.runPlan(t, p, runSpec{budget: testBudget, par: par, batch: batch, opts: opts, cursor: cursor}).out
	}

	elided := map[string]func(p *Plan) *Plan{
		"direct":  func(p *Plan) *Plan { return p },
		"filter":  func(p *Plan) *Plan { return p.Filter(Predicate{Attr: 0, Op: Ge, Value: testDim / 4}) },
		"project": func(p *Plan) *Plan { return p.Project(0, 2, 1) },
		"limit":   func(p *Plan) *Plan { return p.Limit(testDim / 2) },
	}
	for name, shape := range elided {
		t.Run("elided/"+name, func(t *testing.T) {
			plan := func() *Plan { return shape(grouped()).OrderBy() }
			ex := explain(plan(), CompileOptions{})
			kept := explain(shape(grouped()).OrderByWith(pinned), CompileOptions{})
			if ex.Stages != kept.Stages-1 || len(ex.Choices) != len(kept.Choices)-1 {
				t.Errorf("%d stages, %d choices; pinned, %d and %d: want one fewer of each", ex.Stages, len(ex.Choices), kept.Stages, len(kept.Choices))
			}
			if strings.Contains(ex.Root, "OrderBy[") || len(ex.Elided) != 1 || !strings.Contains(ex.Elided[0], "group-by's result") {
				t.Errorf("the order-by is not elided with its reason:\n%s", ex)
			}
			if !strings.Contains(ex.String(), "elided  OrderBy") {
				t.Errorf("Explain does not print the elision:\n%s", ex)
			}
			want := run(plan(), 1, 0, CompileOptions{MaterializeEveryStep: true}, false)
			if len(want) == 0 {
				t.Fatal("the reference produced no rows; the comparison proves nothing")
			}
			for _, par := range []int{1, 4} {
				for _, batch := range []int{1, 1024} {
					if got := run(plan(), par, batch, CompileOptions{}, false); !bytes.Equal(got, want) {
						t.Errorf("RunCtx P=%d batch=%d: %d bytes differ from the reference's %d", par, batch, len(got), len(want))
					}
					if got := run(plan(), par, batch, CompileOptions{}, true); !bytes.Equal(got, want) {
						t.Errorf("cursor P=%d batch=%d: %d bytes differ from the reference's %d", par, batch, len(got), len(want))
					}
				}
			}
		})
	}

	kept := map[string]struct {
		plan func() *Plan
		opts CompileOptions
	}{
		"project-reorders": {func() *Plan { return grouped().Project(1, 0).OrderBy() }, CompileOptions{}},
		"pinned":           {func() *Plan { return grouped().OrderByWith(pinned) }, CompileOptions{}},
		"over-join":        {func() *Plan { return Table(dim1).Join(Table(fact)).OrderBy() }, CompileOptions{}},
		"materialize":      {func() *Plan { return grouped().OrderBy() }, CompileOptions{MaterializeEveryStep: true}},
	}
	for name, k := range kept {
		t.Run("kept/"+name, func(t *testing.T) {
			ex := explain(k.plan(), k.opts)
			if len(ex.Elided) != 0 || !strings.Contains(ex.Root, "OrderBy[") || ex.Choices[len(ex.Choices)-1].Operator != "OrderBy" {
				t.Errorf("the order-by lost its stage:\n%s", ex)
			}
		})
	}
}

// TestPlannerSplitMatchesMeasurement: on the skewed star — query_star's
// shape at test scale, a nested-loops join fed into a group-by whose
// order-by compiles to no stage — the split the allocator compiles must
// measure, by the device's own counters (reads + λ·writes), within 10 %
// of the best of a fixed grid of forced join/group-by splits, at
// query_star's 5 % of the fact table, at 10 % and at 15 %. The fold's
// price reads the join's share (its block is the fold's cluster), so a
// split priced stage by stage would not see what moving memory between
// the two does.
func TestPlannerSplitMatchesMeasurement(t *testing.T) {
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	skewed := budgetPlanShapes(dim1, dim2, fact)["skewed"]
	lambda := r.fac.Device().Lambda()
	floor := stageFloor(r.fac.BlockSize())
	for _, frac := range []float64{0.05, 0.10, 0.15} {
		total := int64(frac * float64(testFact) * record.Size)
		measure := func(opts CompileOptions) (float64, *Explain) {
			res := r.runPlan(t, skewed(), runSpec{budget: total, par: 1, opts: opts})
			if len(res.ex.StageShares) != 2 {
				t.Fatalf("%d stages, want the join and the group-by:\n%s", len(res.ex.StageShares), res.ex)
			}
			return float64(res.stats.Reads) + lambda*float64(res.stats.Writes), res.ex
		}
		chosen, ex := measure(CompileOptions{})
		best, bestJoin := chosen, ex.StageShares[0]
		for i := 1; i < 10; i++ {
			join := max(floor, total*int64(i)/10)
			if total-join < floor {
				continue
			}
			c, _ := measure(CompileOptions{shares: []int64{join, total - join}})
			if c < best {
				best, bestJoin = c, join
			}
		}
		t.Logf("mem=%.0f%%: compiled %v measures %.0f, best forced join share %d measures %.0f", frac*100, ex.StageShares, chosen, bestJoin, best)
		if chosen > 1.10*best {
			t.Errorf("mem=%.0f%%: the compiled split %v measures %.0f, %.1f%% above the forced split [%d+%d] at %.0f",
				frac*100, ex.StageShares, chosen, 100*(chosen/best-1), bestJoin, total-bestJoin, best)
		}
	}
}
