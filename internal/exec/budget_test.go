package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// budgetPlanShapes is the plan-shape grid of the allocator tests: every
// blocking-operator combination the engine plans, from a single sort to
// the skewed star pipeline the allocator exists for.
func budgetPlanShapes(dim1, dim2, fact storage.Collection) map[string]func() *Plan {
	star := func() *Plan {
		inner := Table(dim1).Join(Table(fact))
		return Table(dim2).Join(inner).
			Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).GroupBy(3).OrderBy()
	}
	return map[string]func() *Plan{
		"sort":       func() *Plan { return Table(fact).OrderBy() },
		"join+sort":  func() *Plan { return Table(dim1).Join(Table(fact)).OrderBy() },
		"groupcliff": func() *Plan { return Table(fact).GroupHint(testDim).GroupBy(3).OrderBy() },
		"star":       star,
		"skewed": func() *Plan {
			return Table(dim1).Join(Table(fact)).
				Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupHint(testDim).GroupBy(3).OrderBy()
		},
	}
}

// forEachWriteLatency runs f on a freshly loaded star schema per device
// asymmetry of the planner grids: write latencies of 15, 150 and 900 ns
// against 10 ns reads.
func forEachWriteLatency(t *testing.T, f func(lambdaWrite time.Duration, fac storage.Factory, dim1, dim2, fact storage.Collection)) {
	for _, lambdaWrite := range []time.Duration{15 * time.Nanosecond, 150 * time.Nanosecond, 900 * time.Nanosecond} {
		r := rigOn(t, "blocked", pmem.Config{Capacity: rigDevice, ReadLatency: 10 * time.Nanosecond, WriteLatency: lambdaWrite})
		dim1, dim2, fact := r.loadStar(t, testDim, testFact)
		f(lambdaWrite, r.fac, dim1, dim2, fact)
	}
}

// TestAllocatorNeverWorseThanEvenSplit is the acceptance grid: for every
// plan shape × memory point × device asymmetry, the cost-driven shares'
// predicted total cost must not exceed the even split's, every stage
// share must respect the two-buffer floor, and the shares must not
// oversubscribe the budget (beyond the floors a degenerate budget
// forces).
func TestAllocatorNeverWorseThanEvenSplit(t *testing.T) {
	forEachWriteLatency(t, func(lambdaWrite time.Duration, fac storage.Factory, dim1, dim2, fact storage.Collection) {
		floor := 2 * int64(fac.BlockSize())
		for name, plan := range budgetPlanShapes(dim1, dim2, fact) {
			for _, frac := range []float64{0.01, 0.05, 0.15} {
				budget := int64(frac * float64(testFact) * record.Size)
				if budget < 1 {
					budget = 1
				}
				_, ex, err := Compile(NewCtx(fac, budget, 1), plan())
				if err != nil {
					t.Fatalf("%s λw=%v mem=%.0f%%: %v", name, lambdaWrite, frac*100, err)
				}
				if ex.PlanCost > ex.EvenCost*(1+1e-9) {
					t.Errorf("%s λw=%v mem=%.0f%%: cost-driven %.6g worse than even %.6g",
						name, lambdaWrite, frac*100, ex.PlanCost, ex.EvenCost)
				}
				if len(ex.StageShares) != ex.Stages {
					t.Fatalf("%s: %d shares for %d stages", name, len(ex.StageShares), ex.Stages)
				}
				var sum int64
				for i, s := range ex.StageShares {
					if s < floor {
						t.Errorf("%s λw=%v mem=%.0f%%: stage %d share %d below the %d B floor",
							name, lambdaWrite, frac*100, i, s, floor)
					}
					sum += s
				}
				if minTotal := int64(ex.Stages) * floor; sum > budget && sum > minTotal {
					t.Errorf("%s λw=%v mem=%.0f%%: shares sum %d oversubscribe budget %d",
						name, lambdaWrite, frac*100, sum, budget)
				}
			}
		}
	})
}

// TestStageShareFloor is the satellite bugfix regression: a budget far
// below what the plan's stages need must floor every share at two
// persistence-layer buffers (the old floor was one byte), matching
// algo.Env.BudgetBuffers and the planner's memBuffers.
func TestStageShareFloor(t *testing.T) {
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	inner := Table(dim1).Join(Table(fact))
	plan := Table(dim2).Join(inner).
		Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).GroupBy(3).OrderBy()
	ctx := r.ctx(1, 1) // one byte for four blocking stages
	_, ex, err := Compile(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	floor := 2 * int64(r.fac.BlockSize())
	for i, s := range ex.StageShares {
		if s < floor {
			t.Errorf("stage %d share %d B, want ≥ %d B", i, s, floor)
		}
	}
}

// TestStageSharesFixedAtCompile drives actuals away from the estimates:
// without statistics a ≥-filter is estimated at the textbook 0.5 though
// it keeps every record, so the first blocking stage opens on 2× its
// estimated input. Each stage still runs at the share Compile gave it —
// every choice's share is its StageShares entry, under RunCtx and under a
// drained cursor — the actuals are recorded, and the result is the
// materialize-every-step reference's.
func TestStageSharesFixedAtCompile(t *testing.T) {
	const n = 4000
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 11, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// filter (keeps all, estimated half) → order-by → group-by: two
	// stages over inputs that are on the device, the group-by pinned so
	// that neither is fed.
	plan := func() *Plan {
		return Table(in).Filter(Predicate{Attr: 0, Op: Ge, Value: 0}).OrderBy().GroupByWith(3, sorts.NewSegmentSort(0.5))
	}
	budget := int64(n * record.Size / 10)
	ref, _, err := CompileWith(r.ctx(budget, 1), plan(), CompileOptions{MaterializeEveryStep: true})
	if err != nil {
		t.Fatal(err)
	}
	refOut := r.create(t, "ref", ref.RecordSize())
	if err := RunCtx(context.Background(), r.ctx(budget, 1), ref, refOut); err != nil {
		t.Fatal(err)
	}
	want := readBytes(t, refOut)
	if len(want) != n*ref.RecordSize() {
		t.Fatalf("reference returned %d bytes, want %d groups (unique keys)", len(want), n)
	}
	check := func(how string, ex *Explain, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: result differs from the materialize-every-step reference (%d bytes, want %d)", how, len(got), len(want))
		}
		if len(ex.Choices) != 2 || len(ex.StageShares) != 2 {
			t.Fatalf("%s: %d choices, %d shares, want the order-by and the group-by:\n%s", how, len(ex.Choices), len(ex.StageShares), ex)
		}
		if first := ex.Choices[0]; first.InputRows >= n {
			t.Fatalf("%s: first stage estimated at %d rows, want a real misestimate of %d", how, first.InputRows, n)
		}
		var sum int64
		for i, c := range ex.Choices {
			if c.Share != ex.StageShares[i] {
				t.Errorf("%s: %s runs at share %d B, compiled %d B", how, c.Operator, c.Share, ex.StageShares[i])
			}
			if c.ActualRows != n {
				t.Errorf("%s: %s observed %d rows, want %d", how, c.Operator, c.ActualRows, n)
			}
			sum += c.Share
		}
		if sum > budget {
			t.Errorf("%s: shares sum %d oversubscribe budget %d", how, sum, budget)
		}
	}

	ctx := r.ctx(budget, 1)
	root, ex, err := Compile(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	out := r.create(t, "out", root.RecordSize())
	if err := RunCtx(context.Background(), ctx, root, out); err != nil {
		t.Fatal(err)
	}
	check("RunCtx", ex, readBytes(t, out))

	ctx = r.ctx(budget, 1)
	root, ex, err = Compile(ctx, plan())
	if err != nil {
		t.Fatal(err)
	}
	check("cursor", ex, drainCursor(t, ctx, root))
}

// TestAllocateSyntheticCurves checks the allocator directly: a stage
// with a steep curve takes budget from a flat one, floors hold, and the
// even fallback engages when the total cannot cover the floors.
func TestAllocateSyntheticCurves(t *testing.T) {
	steep := func(m float64) float64 { return 1e6 / m }
	flat := func(m float64) float64 { return 100 }
	a := Allocate(100<<10, 1024, []func(float64) float64{steep, flat})
	if a.Even {
		t.Fatalf("steep+flat fell back to even: %+v", a)
	}
	if a.Shares[0] <= a.Shares[1] {
		t.Errorf("steep stage got %d B, flat got %d B — memory flowed the wrong way", a.Shares[0], a.Shares[1])
	}
	if a.Cost > a.EvenCost*(1+1e-9) {
		t.Errorf("allocation cost %.4g worse than even %.4g", a.Cost, a.EvenCost)
	}
	if a.Shares[1] < 2*1024 {
		t.Errorf("flat stage share %d below the floor", a.Shares[1])
	}

	tiny := Allocate(1024, 1024, []func(float64) float64{steep, flat})
	if !tiny.Even {
		t.Errorf("sub-floor total did not fall back to even: %+v", tiny)
	}
	for i, s := range tiny.Shares {
		if s < 2*1024 {
			t.Errorf("tiny stage %d share %d below the floor", i, s)
		}
	}
}

// TestAllocatorPriceEvaluations bounds planning time where the benchmark
// spends it: query_star's shape, the skewed star at the benchmark's scale
// (10 000 dimension and 100 000 fact rows), at 5, 10 and 15 % of the fact
// table. A compile may price the whole plan at most 690 times — what the
// water-filling allocator the step-edge search replaced spent on
// query_star's 5 % — so a change that multiplies planning work fails
// here. On the planner grid (every shape × memory point × device
// asymmetry) it logs the most edge combinations one allocation scored.
func TestAllocatorPriceEvaluations(t *testing.T) {
	const maxEvals = 690
	// evals allocates c's budget through a counting pricer.
	evals := func(c *compiler) (int, Allocation) {
		bp, n := c.bp, 0
		a := allocate(bp.total, bp.blockSize, len(bp.stages), func(ms []float64) []float64 {
			n++
			return bp.price(ms)
		})
		return n, a
	}
	const nDim, nFact = 10000, 100000
	r := rigOn(t, "blocked", pmem.Config{Capacity: 16 << 20}) // the star's 120 000 rows are 9.6 MB
	dim1, _, fact := r.loadStar(t, nDim, nFact)
	skewed := Table(dim1).Join(Table(fact)).
		Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).GroupHint(nDim).GroupBy(3).OrderBy()
	for _, frac := range []float64{0.05, 0.10, 0.15} {
		c, err := newCompiler(r.ctx(int64(frac*nFact*record.Size), 1), skewed, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, a := evals(c)
		t.Logf("mem=%.0f%%: %d price evaluations, %d edge combinations, shares %v", frac*100, n, a.combos, a.Shares)
		if n > maxEvals {
			t.Errorf("mem=%.0f%%: the allocator priced the plan %d times, want ≤ %d", frac*100, n, maxEvals)
		}
	}

	most, where := 0, ""
	forEachWriteLatency(t, func(lambdaWrite time.Duration, fac storage.Factory, dim1, dim2, fact storage.Collection) {
		for name, plan := range budgetPlanShapes(dim1, dim2, fact) {
			for _, frac := range []float64{0.01, 0.05, 0.15} {
				c, err := newCompiler(NewCtx(fac, int64(frac*float64(testFact)*record.Size), 1), plan(), CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, a := evals(c); a.combos > most {
					most, where = a.combos, fmt.Sprintf("%s λw=%v mem=%.0f%%", name, lambdaWrite, frac*100)
				}
			}
		}
	})
	t.Logf("planner grid: at most %d edge combinations in one allocation (%s)", most, where)
}

// choiceCostSum is Σ Choice.Cost — what Explain shows per stage.
func choiceCostSum(ex *Explain) float64 {
	sum := 0.0
	for _, c := range ex.Choices {
		sum += c.Cost
	}
	return sum
}

// TestOnePricerGrid is the one-pricer property: the allocator's plan
// prediction and the per-stage costs Explain displays come from the same
// stageAlloc.plan, so Σ Choice.Cost must equal Explain.PlanCost for every
// plan shape — planner-owned and pinned, with and without absorbed
// chains — × memory point × device asymmetry × parallelism. Every stage
// cost on the grid is positive — the fold's and the chains' output terms
// are re-sized inside the profile, so no discount can outrun its stage —
// except a fed group-by whose groups fit its share and go on to a fed
// consumer: it reads nothing, writes nothing, and is priced at zero.
func TestOnePricerGrid(t *testing.T) {
	forEachWriteLatency(t, func(lambdaWrite time.Duration, fac storage.Factory, dim1, dim2, fact storage.Collection) {
		shapes := budgetPlanShapes(dim1, dim2, fact)
		shapes["pinned join+sort"] = func() *Plan {
			return Table(dim1).JoinWith(Table(fact), joins.NewSegmentedGrace(0.5)).OrderByWith(sorts.NewSegmentSort(0.3))
		}
		shapes["pinned groupby"] = func() *Plan {
			return Table(fact).GroupHint(testDim).GroupByWith(3, sorts.NewHybridSort(0.5)).OrderBy()
		}
		shapes["filtered groups"] = func() *Plan {
			return Table(dim1).Join(Table(fact)).Filter(Predicate{Attr: 1, Op: Eq, Value: 3}).Project(0, 1, 12, 13, 14, 5, 16, 7, 18, 9).
				GroupByWith(3, sorts.NewExternalMergeSort()).Filter(Predicate{Attr: 1, Op: Gt, Value: 1}).Project(0, 1).OrderBy()
		}
		for name, plan := range shapes {
			for _, frac := range []float64{0.01, 0.05, 0.15} {
				for _, par := range []int{1, 4} {
					budget := int64(frac * float64(testFact) * record.Size)
					_, ex, err := Compile(NewCtx(fac, budget, par), plan())
					if err != nil {
						t.Fatalf("%s λw=%v mem=%.0f%% P=%d: %v", name, lambdaWrite, frac*100, par, err)
					}
					if sum := choiceCostSum(ex); math.Abs(sum-ex.PlanCost) > 1e-6*ex.PlanCost {
						t.Errorf("%s λw=%v mem=%.0f%% P=%d: Σ Choice.Cost %.9g, PlanCost %.9g",
							name, lambdaWrite, frac*100, par, sum, ex.PlanCost)
					}
					for _, c := range ex.Choices {
						if !(c.Cost > 0) && !(c.Cost == 0 && c.Fed && c.Operator == "GroupBy") {
							t.Errorf("%s λw=%v mem=%.0f%% P=%d: %s → %s priced %v, want > 0",
								name, lambdaWrite, frac*100, par, c.Operator, c.Algorithm, c.Cost)
						}
					}
				}
			}
		}
	})
}

// TestFoldPricedSerialAtP: a sort-based group-by hands its sort a sink,
// so its final merge cannot fan out. At P = 4 the stage must cost
// exactly the final pass's undiscounted share — the t run buffers it
// re-reads and the g group buffers it writes, at three quarters of full
// price — more than the same sort would if that pass were credited.
func TestFoldPricedSerialAtP(t *testing.T) {
	forEachWriteLatency(t, func(lambdaWrite time.Duration, fac storage.Factory, _, _, fact storage.Collection) {
		plan := Table(fact).GroupHint(testDim).GroupByWith(3, sorts.NewExternalMergeSort())
		_, ex, err := Compile(NewCtx(fac, testBudget, 4), plan)
		if err != nil {
			t.Fatal(err)
		}
		c := ex.Choices[0]
		tb, g := c.Buffers, buffers(testDim, record.Size, fac.BlockSize())
		m := allocBuffers(c.Share, fac.BlockSize())
		credited := cost.Emit{Out: g}.ExMS(tb, m).PriceP(1, ex.Lambda, 4)
		if want := credited + 0.75*(tb+ex.Lambda*g); math.Abs(c.Cost-want) > 1e-9*want {
			t.Errorf("λw=%v: group-by over t=%.0f into g=%.0f buffers priced %.6g at P=4, want %.6g (%.6g with the final merge serial)",
				lambdaWrite, tb, g, c.Cost, want, credited)
		}
	})
}

// TestGroupByCurveReachesResultOnly: a planner-owned group-by's price is
// a curve in its share, not a cliff. It never rises as the share grows,
// and once the estimated groups fit the folding intake's heap the stage
// runs fed and costs the result alone — written as one ordered stream,
// no runs — plus, over a stored input, the scan that pushes it.
func TestGroupByCurveReachesResultOnly(t *testing.T) {
	const tb, groups, bs = 1563.0, 200, 1024
	fits := float64(groups*record.Size) / bs // the share, in buffers, whose heap holds every group
	for _, lambda := range []float64{1.5, 15, 90} {
		for _, par := range []float64{1, 4} {
			for _, onDevice := range []bool{false, true} {
				out := buffers(groups, record.Size, bs)
				s := &stageAlloc{op: "GroupBy", bp: &budgetPlan{lambda: lambda, par: par, blockSize: bs},
					groupEst: groups, outBuf: out, feedable: true, onDevice: onDevice}
				resultOnly := cost.Profile{Writes: out, SerialWrites: out}
				if onDevice {
					resultOnly.Reads, resultOnly.SerialReads = tb, tb
				}
				want := resultOnly.PriceP(1, lambda, par)
				prev := math.Inf(1)
				for m := 2.0; m <= 4*fits; m += 0.25 {
					pl := s.plan(tb, 0, m)
					if pl.cost > prev*(1+1e-12) {
						t.Errorf("λ=%.1f P=%.0f onDevice=%v: priced %.6g at m=%.2f, %.6g a quarter buffer less", lambda, par, onDevice, pl.cost, m, prev)
					}
					prev = pl.cost
					if m >= fits && (!pl.fed || math.Abs(pl.cost-want) > 1e-9*want) {
						t.Errorf("λ=%.1f P=%.0f onDevice=%v m=%.2f: every group fits, yet fed=%v priced %.6g, want the result alone %.6g",
							lambda, par, onDevice, m, pl.fed, pl.cost, want)
					}
				}
			}
		}
	}
}

// TestPinnedAlgorithmRuns: a plan that pins a catalog algorithm runs that
// algorithm. Over base tables, an order-by, a group-by and a join read and
// write exactly what the algorithm does when run directly at the share
// the plan gave the stage, and the stage's choice names it, pinned and
// priced, before the run and after it.
func TestPinnedAlgorithmRuns(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, testDim, testFact)
	ctx := r.ctx(testBudget, 1)
	check := func(plan *Plan, name string, direct func(env *algo.Env, out storage.Collection) error) {
		t.Helper()
		root, ex, err := Compile(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		c := ex.Choices[0]
		if len(ex.Choices) != 1 || !c.Pinned || c.Algorithm != name || !(c.Cost > 0) {
			t.Fatalf("%s: choices %+v, want the one pinned and priced", name, *c)
		}
		out := r.create(t, "out", root.RecordSize())
		r.dev.ResetStats()
		if err := RunCtx(context.Background(), ctx, root, out); err != nil {
			t.Fatal(err)
		}
		ran := r.dev.Stats()
		if c.Algorithm != name || c.Replanned {
			t.Errorf("%s: after the run the choice names %s (replanned=%v)", name, c.Algorithm, c.Replanned)
		}
		alone := r.create(t, "alone", root.RecordSize())
		r.dev.ResetStats()
		if err := direct(algo.NewParallelEnv(r.fac, c.Share, 1), alone); err != nil {
			t.Fatal(err)
		}
		if want := r.dev.Stats(); ran.Reads != want.Reads || ran.Writes != want.Writes {
			t.Errorf("%s: the plan read %d and wrote %d cachelines, the algorithm alone %d and %d", name, ran.Reads, ran.Writes, want.Reads, want.Writes)
		}
		for _, c := range []storage.Collection{out, alone} {
			if err := c.Destroy(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sp := range []string{"ExMS", "SelS", "LaS", "SegS:0.3", "HybS:0.5"} {
		a, err := sorts.Parse(sp)
		if err != nil {
			t.Fatal(err)
		}
		check(Table(fact).OrderByWith(a), a.Name(), func(env *algo.Env, out storage.Collection) error { return a.Sort(env, fact, out) })
		check(Table(fact).GroupByWith(3, a), a.Name(), func(env *algo.Env, out storage.Collection) error {
			partials, err := aggregate.Partials(fact, 3)
			if err != nil {
				return err
			}
			return sorts.SortFolding(env, a, partials, aggregate.Results(out), aggregate.Combine)
		})
	}
	for _, sp := range []string{"NLJ", "HJ", "GJ", "LaJ", "SegJ:0.5", "HybJ:0.5:0.5"} {
		a, err := joins.Parse(sp)
		if err != nil {
			t.Fatal(err)
		}
		check(Table(dim1).JoinWith(Table(fact), a), a.Name(), func(env *algo.Env, out storage.Collection) error { return a.Join(env, dim1, fact, out) })
	}
}

// runWrites counts the records appended to run-formation temps.
type runWrites struct {
	storage.Factory
	n *int
}

func (f runWrites) Create(name string, recSize int) (storage.Collection, error) {
	c, err := f.Factory.Create(name, recSize)
	if err != nil || !strings.Contains(name, ".run.") {
		return c, err
	}
	return &countedRun{Collection: c, n: f.n}, nil
}

type countedRun struct {
	storage.Collection
	n *int
}

func (c *countedRun) Append(rec []byte) error {
	*c.n++
	return c.Collection.Append(rec)
}

// TestFoldedPriceMatchesIntake: a fed group-by is priced for the partials
// its folding intake writes (stageAlloc.folded), by the order its keys
// arrive in (arrivalAt). Where every group fits the heap the intake writes
// none — the estimate is then at most its slots, which
// cost.Emit.FedExMS prices as the output alone — and where few do the
// estimate is within 10 % of what a real intake's run formation writes,
// on keys arriving uniformly, sorted, in ten clusters, and the way nested
// loops emits a join: consecutive blocks of c keys, each key N/G times
// inside its block, with c just under and just over the heap's S slots —
// in random order, and round-robin as a fact table whose keys cycle
// emits them. Round-robin blocks that overflow the heap ("nlj-rr-over")
// are the exception: past its S slots a cycle misses at twice the
// uniform rate, min(1, 2·(1 − S/c)) per row, which the planner, not
// knowing the order inside a block, does not price; there the estimate
// is only held to [½, 1] of the measurement. Where each group arrives
// only once or a little more (N/G ∈ {1, 1.25}, "shuffled") the estimate
// stays within [G, N]: every group leaves the heap at least once, no row
// twice.
func TestFoldedPriceMatchesIntake(t *testing.T) {
	const n = 20000
	r := newRig(t)
	bs := r.fac.BlockSize()
	// Each arrival returns the n keys in arrival order and how many
	// distinct keys at a time the planner would see arrive (arrivalAt).
	uniform := func(g, _ int, rng *rand.Rand) ([]int, float64) {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(g)
		}
		return keys, 0
	}
	// blocks: the groups, permuted, in consecutive blocks of c, each
	// group N/G times inside its block: round-robin in one order — as
	// nested loops emits a fact table whose keys cycle — or shuffled.
	blocks := func(g, c int, shuffle bool, rng *rand.Rand) ([]int, float64) {
		perm, keys := rng.Perm(g), make([]int, 0, n)
		for lo := 0; lo < g; lo += c {
			block, from := perm[lo:min(lo+c, g)], len(keys)
			for i := range n * len(block) / g {
				keys = append(keys, block[i%len(block)])
			}
			if shuffle {
				rng.Shuffle(len(keys)-from, func(i, j int) { keys[from+i], keys[from+j] = keys[from+j], keys[from+i] })
			}
		}
		return keys, float64(c)
	}
	arrivals := map[string]func(g, slots int, rng *rand.Rand) ([]int, float64){
		"uniform": uniform,
		"sorted": func(g, _ int, _ *rand.Rand) ([]int, float64) {
			keys := make([]int, n)
			for i := range keys {
				keys[i] = i * g / n
			}
			return keys, 1
		},
		// ten clusters of G/10 keys, uniform inside each
		"clustered":    func(g, _ int, rng *rand.Rand) ([]int, float64) { return blocks(g, (g+9)/10, true, rng) },
		"nlj-under":    func(g, slots int, rng *rand.Rand) ([]int, float64) { return blocks(g, slots-slots/8, true, rng) },
		"nlj-over":     func(g, slots int, rng *rand.Rand) ([]int, float64) { return blocks(g, slots+slots/8, true, rng) },
		"nlj-rr-under": func(g, slots int, rng *rand.Rand) ([]int, float64) { return blocks(g, slots-slots/8, false, rng) },
		"nlj-rr-over":  func(g, slots int, rng *rand.Rand) ([]int, float64) { return blocks(g, slots+slots/8, false, rng) },
		// shuffled: every group N/G times, in random order.
		"shuffled": func(g, _ int, rng *rand.Rand) ([]int, float64) {
			keys := rng.Perm(n)
			for i := range keys {
				keys[i] %= g
			}
			return keys, 0
		},
	}
	groups := map[string][]int{"shuffled": {n, n * 4 / 5}}
	for _, name := range []string{"uniform", "sorted", "clustered", "nlj-under", "nlj-over", "nlj-rr-under", "nlj-rr-over", "shuffled"} {
		gs, ok := groups[name]
		if !ok {
			gs = []int{500, 2000, 8000}
		}
		for _, g := range gs {
			for _, slots := range []int{128, 1024, 4096} {
				var partials int
				env := algo.NewEnv(runWrites{Factory: r.fac, n: &partials}, int64(slots*aggregate.PartialSize))
				in, err := sorts.NewIntake(env, aggregate.PartialSize, aggregate.Combine)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(g + slots)))
				keys, cluster := arrivals[name](g, slots, rng)
				raw, partial := record.New(0), make([]byte, aggregate.PartialSize)
				for _, k := range keys {
					record.SetAttr(raw, 0, uint64(k))
					aggregate.Singleton(partial, raw, 4)
					if err := in.Append(partial); err != nil {
						t.Fatal(err)
					}
				}
				it, err := in.Stream()
				if err != nil {
					t.Fatal(err)
				}
				if err := storage.ForEach(it, DefaultBatchSize, func([]byte) error { return nil }); err != nil {
					t.Fatal(err)
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				st := &stageAlloc{op: "GroupBy", groupEst: g, bp: &budgetPlan{blockSize: bs}}
				est := st.folded(buffers(n, record.Size, bs), float64(slots*aggregate.PartialSize)/float64(bs), cluster) * float64(bs) / aggregate.PartialSize
				ratio := est / float64(partials)
				switch {
				case g <= slots:
					if partials != 0 || est > float64(slots) {
						t.Errorf("%s G=%d S=%d: every group fits, yet the intake wrote %d partials and %.0f were estimated", name, g, slots, partials, est)
					}
				case name == "shuffled":
					if est < float64(g) || est > n {
						t.Errorf("shuffled G=%d S=%d: estimated %.0f partials, outside [G, N] = [%d, %d] (the intake wrote %d)", g, slots, est, g, n, partials)
					}
				case name == "nlj-rr-over":
					if ratio < 0.5 || ratio > 1 {
						t.Errorf("%s G=%d S=%d: estimated %.0f partials, the intake wrote %d (%.3f×, want [0.5, 1])", name, g, slots, est, partials, ratio)
					}
				case math.Abs(ratio-1) > 0.10:
					t.Errorf("%s G=%d S=%d: estimated %.0f partials, the intake wrote %d (%.3f×)", name, g, slots, est, partials, ratio)
				}
				t.Logf("%-12s G=%-5d S=%-5d c=%-4.0f estimated %6.0f partials, measured %6d (%.3f×)", name, g, slots, cluster, est, partials, ratio)
			}
		}
	}
}

// TestResultStagePricesWhatItsReaderPays: the stage whose result is the
// plan's — beneath nothing but filters, projections, limits and elided
// order-bys — ends in its reader, so its fed home carries no output term
// (cost.Emit.Handed). Only that stage is marked, and a cursor-pulled
// group-by whose groups fit its share is predicted at what the device
// measures: one scan of its input, and no write — within the one buffer
// the planner rounds its input up to.
func TestResultStagePricesWhatItsReaderPays(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, testDim, testFact)
	in := loadGrouped(t, r, "in", 4000, 40)
	star := func() *Plan {
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupBy(3)
	}
	for name, sh := range map[string]struct {
		plan   *Plan
		result string // the op of the one stage marked
	}{
		"groupby":               {Table(in).GroupBy(4), "GroupBy"},
		"groupby-limit-project": {Table(in).GroupBy(4).Limit(10).Project(0, 1), "GroupBy"},
		"star-elided-orderby":   {star().OrderBy(), "GroupBy"},
		"star-byagg-orderby":    {star().Project(byAgg...).OrderBy(), "OrderBy"},
		"join":                  {Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()), "Join"},
	} {
		c, err := newCompiler(r.ctx(1<<20, 1), sh.plan, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var marked []string
		for _, st := range c.stages {
			if st.result {
				marked = append(marked, st.op)
			}
		}
		if len(marked) != 1 || marked[0] != sh.result {
			t.Errorf("%s: stages %v marked as the result, want the %s", name, marked, sh.result)
		}
	}

	ec := r.ctx(1<<20, 1)
	root, ex, err := Compile(ec, Table(in).GroupHint(40).GroupBy(4))
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Choices[0].Fed {
		t.Fatalf("planner chose %+v, want the fed group-by", ex.Choices[0])
	}
	r.dev.ResetStats()
	drainCursor(t, ec, root)
	st := r.dev.Stats()
	perBuf := float64(r.fac.BlockSize()) / pmem.DefaultCachelineSize
	measured := (float64(st.Reads) + r.fac.Device().Lambda()*float64(st.Writes)) / perBuf
	if st.Writes != 0 || math.Abs(ex.PlanCost-measured) > 1 {
		t.Errorf("predicted %.6g buffer reads, the cursor measured %.6g (%d writes)", ex.PlanCost, measured, st.Writes)
	}
}

// TestOrderByPricedSerialWithoutReservation: an order-by's parallel final
// merge range-appends only on a backend that reserves blocks (blocked);
// on the others it runs serial, and the stage is priced so — at P = 4 its
// cost is the cheapest sort emitting one ordered stream. On blocked at any
// P, and on every backend at P = 1, the price is the plain one.
func TestOrderByPricedSerialWithoutReservation(t *testing.T) {
	for _, backend := range storage.Backends {
		fac := testkit.Factory(t, backend, pmem.Config{Capacity: rigDevice})
		dev := fac.Device()
		in, err := fac.Create("in", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := record.Generate(4000, 17, in.Append); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		bs := fac.BlockSize()
		for _, par := range []int{1, 4} {
			root, ex, err := Compile(NewCtx(fac, int64(16*bs), par), Table(in).OrderBy())
			if err != nil {
				t.Fatal(err)
			}
			if root.(*Sort).st.feedable {
				t.Fatal("an order-by over a base table is feedable; its price is not BestSortPlanEmit's")
			}
			ch := ex.Choices[0]
			tt, m := buffers(in.Len(), record.Size, bs), allocBuffers(ch.Share, bs)
			plain := cost.BestSortPlanEmit(tt, m, dev.Lambda(), float64(par), cost.Emit{}).Cost
			want := plain
			if backend != "blocked" && par > 1 {
				want = cost.BestSortPlanEmit(tt, m, dev.Lambda(), float64(par), cost.Emit{Serial: true}).Cost
				if want <= plain {
					t.Fatalf("a serial final merge prices %g, a range-appended one %g: the test proves nothing", want, plain)
				}
			}
			if ch.Cost != want {
				t.Errorf("%s P=%d: order-by priced %g, want %g (plain %g)", backend, par, ch.Cost, want, plain)
			}
		}
	}
}
