package bench

// The budget experiment is not a paper artifact: it measures the
// cost-driven memory planning this repository adds on top of Viglas'14.
// A deliberately skewed star pipeline — a large fact-table join feeding
// a group-by that collapses to a handful of rows, then a tiny final
// sort — is run per memory point with (a) the marginal-benefit
// allocator's shares and (b) K concurrent copies admitted through the
// broker with fixed grants vs grant bidding. The cost-driven row prints
// the allocator's predicted plan cost next to its prediction for the
// even split (its internal no-worse fallback), showing where shifting
// memory toward the stage whose cost curve bends most buys cost; the
// fixed-vs-bidding rows show broker wait time falling when queries bid
// for the smaller grants their plans price well at.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wlpm/internal/broker"
	"wlpm/internal/exec"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// budgetContenders is K, the concurrent copies of the contended phase.
const budgetContenders = 3

// budgetBidSlack is the accepted predicted slowdown of a smaller grant:
// candidates within 2× of the full-budget prediction join the bid.
const budgetBidSlack = 2.0

// Budget measures the cost-driven stage shares against the even split's
// prediction, and fixed-grant vs grant-bidding admission, on the skewed
// star pipeline.
func Budget(cfg Config) ([]*Report, error) {
	cfg.Spin = true // overlap device latencies, like the concurrency experiment
	nDim, nFact := cfg.JoinRows()
	rep := &Report{
		ID: "budget",
		Title: fmt.Sprintf("Cost-driven memory planning, skewed star pipeline (%d ⋈ %d ⋈ %d, backend=%s, K=%d)",
			nDim, nFact, nDim, cfg.Backend, budgetContenders),
		Columns: []string{"memory", "mode", "resp/wall (ms)", "writes (M)", "predicted cost",
			"even-split cost", "broker wait (ms)"},
	}
	for _, frac := range cfg.memFracs(pipelineMemPoints) {
		budget := int64(frac * float64(nFact) * record.Size)
		if budget < int64(record.Size) {
			budget = record.Size
		}
		cfg.logf("budget: mem=%.1f%% cost-driven", frac*100)
		m, ex, err := measureBudgetSplit(cfg, nDim, nFact, budget)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmtPct(frac), "cost-driven", fmtDur(m.Response), fmtMillions(m.Writes),
			fmt.Sprintf("%.4g", ex.PlanCost), fmt.Sprintf("%.4g", ex.EvenCost), "—",
		})
		for _, mode := range []struct {
			name string
			bid  bool
		}{{fmt.Sprintf("K=%d fixed grants", budgetContenders), false},
			{fmt.Sprintf("K=%d grant bidding", budgetContenders), true}} {
			cfg.logf("budget: mem=%.1f%% %s", frac*100, mode.name)
			wall, wait, writes, err := measureBudgetContention(cfg, nDim, nFact, budget, mode.bid)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmtPct(frac), mode.name, fmtDur(wall), fmtMillions(writes), "—", "—", fmtDur(wait),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"The pipeline is skewed on purpose: the group-by collapses the join output to the dimension "+
			"cardinality, so the final sort's cost curve is flat and the allocator shifts its share to "+
			"the join and the aggregation. The even-split column is the allocator's prediction for the "+
			"split it falls back to whenever the cost-driven shares would not beat it.",
		fmt.Sprintf("Contended rows run K=%d copies against a broker budget of 1.5 grants: fixed-size "+
			"requests serialize, while bidding sessions accept a half or quarter grant (within %.1fx "+
			"predicted cost) and overlap. Broker wait is the summed time queries spent waiting for memory.",
			budgetContenders, budgetBidSlack),
	)
	return []*Report{rep}, nil
}

// budgetRig loads the skewed star tables and returns the plan builder.
func budgetRig(cfg Config, nDim, nFact int, capMul int64) (*rig, func() *exec.Plan, error) {
	payload := int64(nDim*2+nFact) * record.Size
	r, err := newRig(cfg, cfg.Backend, payload*2*capMul)
	if err != nil {
		return nil, nil, err
	}
	dim1, fact, err := r.loadJoinInputs(nDim, nFact)
	if err != nil {
		return nil, nil, err
	}
	dim2, err := r.fac.Create("dim2", record.Size)
	if err != nil {
		return nil, nil, err
	}
	if err := record.Generate(nDim, 43, dim2.Append); err != nil {
		return nil, nil, err
	}
	if err := dim2.Close(); err != nil {
		return nil, nil, err
	}
	plan := func() *exec.Plan {
		p := exec.Table(dim1).Join(exec.Table(fact))
		p = exec.Table(dim2).Join(p)
		// GroupHint: the skew the allocator exploits — the aggregation
		// collapses to nDim groups, so everything above it is tiny.
		return p.Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).GroupHint(nDim).GroupBy(3).OrderBy()
	}
	return r, plan, nil
}

// measureBudgetSplit runs the pipeline once at the allocator's shares and
// reports the metrics plus the plan explanation (predicted plan cost and
// the even split's).
func measureBudgetSplit(cfg Config, nDim, nFact int, budget int64) (Metrics, *exec.Explain, error) {
	r, plan, err := budgetRig(cfg, nDim, nFact, 1)
	if err != nil {
		return Metrics{}, nil, err
	}
	ctx := cfg.newExecCtx(r.fac, budget)
	root, ex, err := exec.Compile(ctx, plan())
	if err != nil {
		return Metrics{}, nil, err
	}
	out, err := r.fac.Create("result", record.Size)
	if err != nil {
		return Metrics{}, nil, err
	}
	m, err := r.measure(cfg, func() error { return exec.Run(ctx, root, out) })
	if err != nil {
		return Metrics{}, nil, fmt.Errorf("budget (mem %d B): %w", budget, err)
	}
	if out.Len() != nDim {
		return Metrics{}, nil, fmt.Errorf("budget: %d result groups, want %d", out.Len(), nDim)
	}
	return m, ex, nil
}

// measureBudgetContention runs K copies of the pipeline against a
// broker holding 1.5 grants' worth of memory. Fixed mode: every query
// demands the full grant (they serialize). Bidding mode: queries price
// the plan at full/half/quarter budgets (exec.PlanCosts, the same
// pricing sessions bid with) and AcquireBest admits the largest feasible
// candidate. Returns wall time, summed admission wait and per-query
// writes.
func measureBudgetContention(cfg Config, nDim, nFact int, perQuery int64, bid bool) (wall, wait time.Duration, writes uint64, err error) {
	r, plan, err := budgetRig(cfg, nDim, nFact, budgetContenders)
	if err != nil {
		return 0, 0, 0, err
	}
	b, err := broker.New(perQuery + perQuery/2)
	if err != nil {
		return 0, 0, 0, err
	}
	candidates := []int64{perQuery}
	if bid {
		ec := exec.NewCtx(r.fac, perQuery, cfg.Parallelism)
		budgets := []int64{perQuery, perQuery / 2, perQuery / 4}
		costs, err := exec.PlanCosts(ec, plan(), budgets)
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 1; i < len(budgets); i++ {
			if budgets[i] > 0 && costs[i] <= budgetBidSlack*costs[0] {
				candidates = append(candidates, budgets[i])
			}
		}
	}
	outs := make([]storage.Collection, budgetContenders)
	for i := range outs {
		if outs[i], err = r.fac.Create(fmt.Sprintf("result%d", i), record.Size); err != nil {
			return 0, 0, 0, err
		}
	}
	waits := make([]time.Duration, budgetContenders)
	runOne := func(i int) error {
		t0 := time.Now()
		//lint:allow wlvet/ctxparam bench harness owns the run lifetime; measured queries must run to completion
		g, err := b.AcquireBest(context.Background(), candidates, broker.Block)
		if err != nil {
			return err
		}
		waits[i] = time.Since(t0)
		defer g.Release()
		ec := cfg.newExecCtx(r.fac, g.Bytes())
		root, _, err := exec.Compile(ec, plan())
		if err != nil {
			return err
		}
		//lint:allow wlvet/ctxparam bench harness owns the run lifetime; measured queries must run to completion
		return exec.RunCtx(context.Background(), ec, root, outs[i])
	}
	r.dev.ResetStats()
	start := time.Now()
	errs := make([]error, budgetContenders)
	var wg sync.WaitGroup
	for i := 0; i < budgetContenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runOne(i)
		}(i)
	}
	wg.Wait()
	wall = time.Since(start)
	for i, err := range errs {
		if err != nil {
			return 0, 0, 0, fmt.Errorf("budget contender %d (bid %v): %w", i, bid, err)
		}
	}
	for i, out := range outs {
		if out.Len() != nDim {
			return 0, 0, 0, fmt.Errorf("budget contender %d: %d result groups, want %d", i, out.Len(), nDim)
		}
	}
	if hw := b.HighWater(); hw > b.Total() {
		return 0, 0, 0, fmt.Errorf("broker high water %d B exceeds budget %d B", hw, b.Total())
	}
	for _, w := range waits {
		wait += w
	}
	return wall, wait, r.dev.Stats().Writes / budgetContenders, nil
}
