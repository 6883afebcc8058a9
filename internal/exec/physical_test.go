package exec

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/testkit"
)

// plannerGrid is the (λ, memory-fraction) sweep of the planner tests:
// write/read ratios from near-symmetric to deeply asymmetric media, and
// the paper's 1–15% memory sweep endpoints plus its middle.
var plannerGrid = struct {
	lambdas []float64
	fracs   []float64
}{
	lambdas: []float64{1.5, 2, 5, 15, 40},
	fracs:   []float64{0.01, 0.05, 0.15},
}

// sortCandidates enumerates exactly the planner's candidate set for the
// test's independent argmin.
func sortCandidates(t, m, lambda float64) map[string]cost.Profile {
	c := map[string]cost.Profile{
		sorts.NewExternalMergeSort().Name(): cost.Emit{}.ExMS(t, m),
		sorts.NewSelectionSort().Name():     cost.Emit{}.SelS(t, m),
		sorts.NewLazySort().Name():          cost.Emit{}.LaS(t, m, lambda),
	}
	xSeg := cost.BestKnobP(lambda, 1, func(x float64) cost.Profile { return cost.Emit{}.SegS(x, t, m) },
		cost.SegmentSortOptimalX(t, m, lambda))
	c[sorts.NewSegmentSort(xSeg).Name()] = cost.Emit{}.SegS(xSeg, t, m)
	xHyb := cost.BestKnobP(lambda, 1, func(x float64) cost.Profile { return cost.Emit{}.HybS(x, t, m) })
	c[sorts.NewHybridSort(xHyb).Name()] = cost.Emit{}.HybS(xHyb, t, m)
	return c
}

// freeStage is an unpinned blocking stage outside any plan, priced
// serially at ratio λ: what the planner picks for given (t, v, m).
func freeStage(op string, lambda float64) *stageAlloc {
	return &stageAlloc{op: op, bp: &budgetPlan{lambda: lambda, par: 1, blockSize: 1}}
}

func TestChooseSortAgreesWithCheapestPrediction(t *testing.T) {
	const tBuf = 4000.0
	for _, lambda := range plannerGrid.lambdas {
		for _, frac := range plannerGrid.fracs {
			m := tBuf * frac
			st := freeStage("OrderBy", lambda)
			pl := st.plan(tBuf, 0, m)
			a, price := st.sortFor(pl), pl.sort.Profile.PriceP(1, lambda, 1)

			bestName, bestPrice := "", math.Inf(1)
			for name, p := range sortCandidates(tBuf, m, lambda) {
				if c := p.PriceP(1, lambda, 1); c < bestPrice {
					bestName, bestPrice = name, c
				}
			}
			if price > bestPrice*(1+1e-12) {
				t.Errorf("λ=%.1f m=%.0f: planner chose %s at %.4g, cheapest prediction is %s at %.4g",
					lambda, m, a.Name(), price, bestName, bestPrice)
			}
			t.Logf("λ=%4.1f mem=%4.0f%%: sort → %-12s (est %.4g)", lambda, frac*100, a.Name(), price)
		}
	}
}

func joinCandidates(t, v, m, lambda float64) map[string]cost.Profile {
	c := map[string]cost.Profile{
		joins.NewNestedLoops().Name(): cost.Emit{}.NLJ(t, v, m),
		joins.NewGrace().Name():       cost.Emit{}.GJ(t, v),
		joins.NewHash().Name():        cost.Emit{}.HJ(t, v, m),
		joins.NewLazyHash().Name():    cost.Emit{}.LaJ(t, v, m, lambda),
	}
	sx, sy := cost.HybridJoinSaddle(t, v, m, lambda)
	bx, by, bc := 0.0, 0.0, math.Inf(1)
	try := func(x, y float64) {
		if p := (cost.Emit{}).HybJ(x, y, t, v, m).PriceP(1, lambda, 1); p < bc {
			bx, by, bc = x, y, p
		}
	}
	for xi := 0; xi <= 4; xi++ {
		for yi := 0; yi <= 4; yi++ {
			try(float64(xi)*0.25, float64(yi)*0.25)
		}
	}
	if sx >= 0 && sx <= 1 && sy >= 0 && sy <= 1 {
		try(sx, sy)
	}
	c[joins.NewHybridGraceNL(bx, by).Name()] = cost.Emit{}.HybJ(bx, by, t, v, m)
	xSeg := cost.BestKnobP(lambda, 1, func(x float64) cost.Profile { return cost.Emit{}.SegJ(x, t, v, m) })
	c[joins.NewSegmentedGrace(xSeg).Name()] = cost.Emit{}.SegJ(xSeg, t, v, m)
	return c
}

func TestChooseJoinAgreesWithCheapestPrediction(t *testing.T) {
	const tBuf = 1000.0
	const vBuf = 10 * tBuf
	for _, lambda := range plannerGrid.lambdas {
		for _, frac := range plannerGrid.fracs {
			m := tBuf * frac
			st := freeStage("Join", lambda)
			pl := st.plan(tBuf, vBuf, m)
			a, price := st.joinFor(pl), pl.join.Profile.PriceP(1, lambda, 1)

			bestName, bestPrice := "", math.Inf(1)
			for name, p := range joinCandidates(tBuf, vBuf, m, lambda) {
				if c := p.PriceP(1, lambda, 1); c < bestPrice {
					bestName, bestPrice = name, c
				}
			}
			if price > bestPrice*(1+1e-12) {
				t.Errorf("λ=%.1f m=%.0f: planner chose %s at %.4g, cheapest prediction is %s at %.4g",
					lambda, m, a.Name(), price, bestName, bestPrice)
			}
			t.Logf("λ=%4.1f mem=%4.0f%%: join → %-14s (est %.4g)", lambda, frac*100, a.Name(), price)
		}
	}
}

// TestPlannerRespondsToLambda pins the qualitative behaviour the paper
// predicts: as writes get more expensive, the planner trades reads for
// writes — the chosen plan's predicted write volume is non-increasing
// in λ and strictly drops across the sweep.
func TestPlannerRespondsToLambda(t *testing.T) {
	const tBuf, m = 4000.0, 200.0 // 5% memory
	prevWrites := math.Inf(1)
	first, last := 0.0, 0.0
	for _, lambda := range []float64{1, 2, 5, 15, 40, 100} {
		prof := freeStage("OrderBy", lambda).plan(tBuf, 0, m).sort.Profile
		if prof.Writes > prevWrites {
			t.Errorf("λ=%.0f: chosen writes %v above cheaper-λ choice %v", lambda, prof.Writes, prevWrites)
		}
		prevWrites = prof.Writes
		if lambda == 1 {
			first = prof.Writes
		}
		last = prof.Writes
	}
	if last >= first {
		t.Errorf("write volume never dropped across λ sweep (%.0f → %.0f)", first, last)
	}
}

// TestCompileConsultsCostModel checks the wiring: the Explain choices of
// a compiled plan are exactly what a free-standing stage plans for the
// cardinalities and stage budget the compiler derives.
func TestCompileConsultsCostModel(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, testDim, testFact)
	ctx := r.ctx(testBudget, 1)
	plan := Table(dim1).Join(Table(fact)).OrderBy()
	_, ex, err := Compile(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Choices) != 2 {
		t.Fatalf("explain has %d choices, want 2 (join, orderby): %+v", len(ex.Choices), ex.Choices)
	}
	lambda := r.fac.Device().Lambda()
	bs := float64(r.fac.BlockSize())
	// Each choice is priced at the budget allocator's share for its
	// stage, surfaced both on the choice and in StageShares.
	if len(ex.StageShares) != 2 {
		t.Fatalf("stage shares %v, want 2 entries", ex.StageShares)
	}
	mOf := func(share int64) float64 {
		m := float64(share) / bs
		if m < 2 {
			m = 2
		}
		return m
	}
	for i, c := range ex.Choices {
		if c.Share != ex.StageShares[i] {
			t.Errorf("choice %d share %d, want stage share %d", i, c.Share, ex.StageShares[i])
		}
	}
	tJoin := math.Ceil(float64(testDim) * record.Size / bs)
	vJoin := math.Ceil(float64(testFact) * record.Size / bs)
	js := freeStage("Join", lambda)
	js.handed = true // its consumer, a planner-owned order-by, prices the result's home
	wantJoin := js.joinFor(js.plan(tJoin, vJoin, mOf(ex.Choices[0].Share)))
	if ex.Choices[0].Algorithm != wantJoin.Name() {
		t.Errorf("join choice %s, want %s", ex.Choices[0].Algorithm, wantJoin.Name())
	}
	// Order-by input: the join output estimate (|V| rows of 160 B).
	tSort := math.Ceil(float64(testFact) * 2 * record.Size / bs)
	ss := freeStage("OrderBy", lambda)
	ss.feedable = true
	wantPlan := ss.plan(tSort, 0, mOf(ex.Choices[1].Share))
	if wantSort := ss.sortFor(wantPlan); ex.Choices[1].Algorithm != wantSort.Name() || ex.Choices[1].Fed != wantPlan.fed {
		t.Errorf("orderby choice %s (fed %v), want %s (fed %v)", ex.Choices[1].Algorithm, ex.Choices[1].Fed, wantSort.Name(), wantPlan.fed)
	}
}

// TestAutoPlanByteIdenticalToFixedPlans runs the star pipeline with the
// planner free, then pins every sort and join algorithm in turn: all
// outputs must be byte-identical (the final order-by canonicalizes
// emission order).
func TestAutoPlanByteIdenticalToFixedPlans(t *testing.T) {
	runPlan := func(sortA sorts.Algorithm, joinA joins.Algorithm) []byte {
		r := newRig(t)
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		ctx := r.ctx(testBudget, 1)
		root, _, err := Compile(ctx, starPlan(dim1, dim2, fact, sortA, joinA))
		if err != nil {
			t.Fatal(err)
		}
		out := r.create(t, "out", record.Size)
		if err := RunCtx(context.Background(), ctx, root, out); err != nil {
			t.Fatal(err)
		}
		return readBytes(t, out)
	}

	auto := runPlan(nil, nil) // both choices left to the planner
	if len(auto) == 0 {
		t.Fatal("auto plan produced no output")
	}
	for _, sortA := range []sorts.Algorithm{
		sorts.NewExternalMergeSort(),
		sorts.NewSelectionSort(),
		sorts.NewSegmentSort(0.5),
		sorts.NewHybridSort(0.5),
		sorts.NewLazySort(),
	} {
		if got := runPlan(sortA, joins.NewGrace()); !bytes.Equal(got, auto) {
			t.Errorf("fixed sort %s: output differs from auto plan", sortA.Name())
		}
	}
	for _, joinA := range []joins.Algorithm{
		joins.NewNestedLoops(),
		joins.NewHash(),
		joins.NewGrace(),
		joins.NewHybridGraceNL(0.5, 0.5),
		joins.NewSegmentedGrace(0.5),
		joins.NewLazyHash(),
	} {
		if got := runPlan(sorts.NewExternalMergeSort(), joinA); !bytes.Equal(got, auto) {
			t.Errorf("fixed join %s: output differs from auto plan", joinA.Name())
		}
	}
}

// TestPlannerLambdaFromDevice checks the λ plumbed into Compile is the
// device's, not a constant: a near-symmetric device must yield ExMS for
// a large sort while the default λ=15 device does not at tight memory.
func TestPlannerLambdaFromDevice(t *testing.T) {
	build := func(read, write time.Duration) string {
		fac := testkit.Factory(t, "blocked", pmem.Config{Capacity: rigDevice, ReadLatency: read, WriteLatency: write})
		in, err := fac.Create("in", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := record.Generate(20000, 5, in.Append); err != nil {
			t.Fatal(err)
		}
		in.Close()
		ctx := NewCtx(fac, int64(20000*record.Size/100), 1) // 1% memory
		_, ex, err := Compile(ctx, Table(in).OrderBy())
		if err != nil {
			t.Fatal(err)
		}
		return ex.Choices[0].Algorithm
	}
	sym := build(10*time.Nanosecond, 10*time.Nanosecond)
	asym := build(10*time.Nanosecond, 1500*time.Nanosecond) // λ=150
	if asym == sym {
		t.Errorf("λ=1 and λ=150 devices both choose %s: device λ not consulted", asym)
	}
}
