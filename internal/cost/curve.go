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
// BestSortPlanP and BestJoinPlanP answer it pointwise, over exactly the
// candidate set the exec planner instantiates: every sort, SegS's and
// HybS's intensity knob placed by BestKnobP's grid search, and the four
// knobless joins (HybJ and SegJ are never cheaper than the best of them;
// see BestJoinPlanEmit). SegSKnob is the one placement of SegS's knob,
// for the planner and SegS(auto) alike.

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

// JoinPlan is SortPlan's join twin. The planner's joins take no knob
// (see BestJoinPlanEmit).
type JoinPlan struct {
	Algo    string
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
	xSeg := SegSKnob(t, m, lambda, par, e)
	consider(SortSegS, xSeg, e.SegS(xSeg, t, m))
	xHyb := BestKnobP(lambda, par, func(x float64) Profile { return e.HybS(x, t, m) })
	consider(SortHybS, xHyb, e.HybS(xHyb, t, m))
	return best
}

// SegSKnob places SegS's write intensity for t input buffers with m of
// memory at ratio λ under par-way parallelism, emitting as e describes:
// BestKnobP's grid seeded with Eq. 4's x. The planner's SegS and
// SegS(auto) both place it here.
func SegSKnob(t, m, lambda, par float64, e Emit) float64 {
	return BestKnobP(lambda, par, func(x float64) Profile { return e.SegS(x, t, m) },
		SegmentSortOptimalX(t, m, lambda))
}

// BestJoinPlanP prices every knobless equi-join implementation for t
// build-side and v probe-side buffers with m buffers of memory at ratio
// λ under par-way intra-operator parallelism (see BestSortPlanP) and
// returns the cheapest.
func BestJoinPlanP(t, v, m, lambda, par float64) JoinPlan {
	return BestJoinPlanEmit(t, v, m, lambda, par, Emit{})
}

// BestJoinPlanEmit is BestSortPlanEmit's join twin. Its candidates are
// NLJ, GJ, HJ and LaJ. The knobbed joins are linear in a knob, so each is
// cheapest at an end, and no end is cheaper than both NLJ and GJ. HybJ is
// linear in y: its y = 0 edge is NLJ plus the prefix's partition I/O and
// split block builds (⌈xa⌉ + ⌈(1−x)a⌉ ≥ ⌈a⌉), and its y = 1 edge undercuts
// GJ only where NLJ is cheaper still. SegJ is linear in its offloaded
// partitions: at none it is NLJ plus re-scans, at all of them it is GJ.
// Both stay in the catalog to be pinned.
func BestJoinPlanEmit(t, v, m, lambda, par float64, e Emit) JoinPlan {
	best := JoinPlan{Cost: math.Inf(1)}
	consider := func(algo string, p Profile) {
		if c := p.PriceP(1, lambda, par); c < best.Cost {
			best = JoinPlan{Algo: algo, Profile: p, Cost: c}
		}
	}
	consider(JoinNLJ, e.NLJ(t, v, m))
	consider(JoinGJ, e.GJ(t, v))
	consider(JoinHJ, e.HJ(t, v, m))
	consider(JoinLaJ, e.LaJ(t, v, m, lambda))
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
