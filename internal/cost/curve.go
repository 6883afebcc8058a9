package cost

import "math"

// Marginal-benefit API: the optimizer-facing view of the cost model.
//
// The Profile constructors price one algorithm at one memory point; the
// planner's real question is the inverse — "what is the cheapest way to
// run this blocking stage as a function of its memory share m?". That
// function is what the budget allocator splits memory by: it searches
// the step edges of each stage's curve for the split whose stages cost
// least together, so memory goes where a curve steps down, not evenly.
// BestSortPlanP and BestJoinPlanP answer it pointwise (the cheapest
// shipped implementation with its intensity knobs placed, exactly the
// candidate set the exec planner instantiates).

// Sort algorithm identifiers of BestSortPlanP results.
const (
	SortExMS = "ExMS"
	SortSelS = "SelS"
	SortLaS  = "LaS"
	SortSegS = "SegS"
	SortHybS = "HybS"
)

// Join algorithm identifiers of BestJoinPlanP results.
const (
	JoinNLJ  = "NLJ"
	JoinGJ   = "GJ"
	JoinHJ   = "HJ"
	JoinLaJ  = "LaJ"
	JoinHybJ = "HybJ"
	JoinSegJ = "SegJ"
)

// SortPlan is the cheapest shipped sort implementation at one
// (t, m, λ) point: the algorithm, its placed intensity knob (SegS/HybS;
// zero otherwise), its I/O profile and the profile's price in
// buffer-read units.
type SortPlan struct {
	Algo      string
	Intensity float64
	Profile   Profile
	Cost      float64
}

// JoinPlan is SortPlan's join twin; X and Y are the HybJ fractions (X
// doubles as the SegJ intensity).
type JoinPlan struct {
	Algo    string
	X, Y    float64
	Profile Profile
	Cost    float64
}

// BestSortPlanP prices every shipped sort implementation (knobs placed
// by solver-seeded grid search) for t input buffers with m buffers of
// memory at write/read ratio λ under par-way intra-operator parallelism
// and returns the cheapest; the exec planner instantiates the result.
// Each candidate is priced with its serial portions at full cost and the
// rest overlapped par ways, so the knob search sees — and exploits — a
// phase's parallel discount. At par > 1 the write-serial algorithms
// (SelS, LaS) lose ground to ExMS/HybS exactly as their engine
// counterparts do; par = 1 is the paper's serial price.
func BestSortPlanP(t, m, lambda, par float64) SortPlan {
	return BestSortPlanEmit(t, m, lambda, par, Emit{})
}

// BestSortPlanEmit is BestSortPlanP for a sort whose output term is not
// the profile's: every candidate is profiled emitting as e describes, so
// the ranking, the knob search and the returned Profile and Cost all
// describe the sort that will run.
func BestSortPlanEmit(t, m, lambda, par float64, e Emit) SortPlan {
	best := SortPlan{Cost: math.Inf(1)}
	consider := func(algo string, knob float64, p Profile) {
		if c := p.PriceP(1, lambda, par); c < best.Cost {
			best = SortPlan{Algo: algo, Intensity: knob, Profile: p, Cost: c}
		}
	}
	consider(SortExMS, 0, e.ExMS(t, m))
	consider(SortSelS, 0, e.SelS(t, m))
	consider(SortLaS, 0, e.LaS(t, m, lambda))
	xSeg := BestKnobP(lambda, par, func(x float64) Profile { return e.SegS(x, t, m) },
		SegmentSortOptimalX(t, m, lambda))
	consider(SortSegS, xSeg, e.SegS(xSeg, t, m))
	xHyb := BestKnobP(lambda, par, func(x float64) Profile { return e.HybS(x, t, m) })
	consider(SortHybS, xHyb, e.HybS(xHyb, t, m))
	return best
}

// BestJoinPlanP prices every shipped equi-join implementation for t
// build-side and v probe-side buffers with m buffers of memory at ratio
// λ under par-way intra-operator parallelism (see BestSortPlanP) and
// returns the cheapest.
func BestJoinPlanP(t, v, m, lambda, par float64) JoinPlan {
	return BestJoinPlanEmit(t, v, m, lambda, par, Emit{})
}

// BestJoinPlanEmit is BestSortPlanEmit's join twin.
func BestJoinPlanEmit(t, v, m, lambda, par float64, e Emit) JoinPlan {
	best := JoinPlan{Cost: math.Inf(1)}
	consider := func(algo string, x, y float64, p Profile) {
		if c := p.PriceP(1, lambda, par); c < best.Cost {
			best = JoinPlan{Algo: algo, X: x, Y: y, Profile: p, Cost: c}
		}
	}
	consider(JoinNLJ, 0, 0, e.NLJ(t, v, m))
	consider(JoinGJ, 0, 0, e.GJ(t, v))
	consider(JoinHJ, 0, 0, e.HJ(t, v, m))
	consider(JoinLaJ, 0, 0, e.LaJ(t, v, m, lambda))
	sx, sy := HybridJoinSaddle(t, v, m, lambda)
	bx, by, bc := 0.0, 0.0, math.Inf(1)
	tryXY := func(x, y float64) {
		if x < 0 || x > 1 || y < 0 || y > 1 {
			return
		}
		if c := e.HybJ(x, y, t, v, m).PriceP(1, lambda, par); c < bc {
			bx, by, bc = x, y, c
		}
	}
	for xi := 0; xi <= 4; xi++ {
		for yi := 0; yi <= 4; yi++ {
			tryXY(float64(xi)*0.25, float64(yi)*0.25)
		}
	}
	tryXY(sx, sy)
	consider(JoinHybJ, bx, by, e.HybJ(bx, by, t, v, m))
	xSeg := BestKnobP(lambda, par, func(x float64) Profile { return e.SegJ(x, t, v, m) })
	consider(JoinSegJ, xSeg, 0, e.SegJ(xSeg, t, v, m))
	return best
}

// BestKnobP grid-searches an intensity knob x ∈ [0, 1] (step 0.05) plus
// any analytic seeds for the cheapest profile price at ratio λ under
// par-way parallelism; a knob that shifts work from a serial phase to a
// parallel one pays off more as par grows, so the placed intensity
// depends on par.
func BestKnobP(lambda, par float64, f func(x float64) Profile, seeds ...float64) float64 {
	bestX, bestC := 0.0, math.Inf(1)
	try := func(x float64) {
		if x < 0 || x > 1 {
			return
		}
		if c := f(x).PriceP(1, lambda, par); c < bestC {
			bestX, bestC = x, c
		}
	}
	for i := 0; i <= 20; i++ {
		try(float64(i) * 0.05)
	}
	for _, s := range seeds {
		try(s)
	}
	return bestX
}
