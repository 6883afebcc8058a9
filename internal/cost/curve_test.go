package cost

import (
	"math"
	"testing"
)

// TestBestSortPlanIsArgmin: the returned plan must price at the minimum
// of the candidate set across a (t, m, λ) grid.
func TestBestSortPlanIsArgmin(t *testing.T) {
	for _, lambda := range []float64{1.5, 5, 15, 40} {
		for _, frac := range []float64{0.01, 0.05, 0.15} {
			tb := 4000.0
			m := tb * frac
			best := BestSortPlanP(tb, m, lambda, 1)
			candidates := []Profile{
				ExMSProfile(tb, m),
				SelSProfile(tb, m),
				LaSProfile(tb, m, lambda),
				SegSProfile(BestKnobP(lambda, 1, func(x float64) Profile { return SegSProfile(x, tb, m) },
					SegmentSortOptimalX(tb, m, lambda)), tb, m),
				HybSProfile(BestKnobP(lambda, 1, func(x float64) Profile { return HybSProfile(x, tb, m) }), tb, m),
			}
			min := math.Inf(1)
			for _, p := range candidates {
				if c := p.PriceP(1, lambda, 1); c < min {
					min = c
				}
			}
			if best.Cost > min*(1+1e-12) {
				t.Errorf("λ=%.1f m=%.0f: BestSortPlanP %s at %.6g, candidate minimum %.6g",
					lambda, m, best.Algo, best.Cost, min)
			}
			if got := best.Profile.PriceP(1, lambda, 1); math.Abs(got-best.Cost) > 1e-9*(1+best.Cost) {
				t.Errorf("plan cost %.6g disagrees with its own profile %.6g", best.Cost, got)
			}
		}
	}
}

// TestBestJoinPlanIsArgmin is the join twin.
func TestBestJoinPlanIsArgmin(t *testing.T) {
	for _, lambda := range []float64{1.5, 15, 40} {
		tb, vb := 1000.0, 10000.0
		for _, frac := range []float64{0.01, 0.05, 0.15} {
			m := tb * frac
			best := BestJoinPlanP(tb, vb, m, lambda, 1)
			min := math.Inf(1)
			for _, p := range []Profile{
				NLJProfile(tb, vb, m), GJProfile(tb, vb), HJProfile(tb, vb, m),
				LaJProfile(tb, vb, m, lambda),
			} {
				if c := p.PriceP(1, lambda, 1); c < min {
					min = c
				}
			}
			if best.Cost > min*(1+1e-12) {
				t.Errorf("λ=%.1f m=%.0f: BestJoinPlanP %s at %.6g above a fixed candidate at %.6g",
					lambda, m, best.Algo, best.Cost, min)
			}
		}
	}
}
