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
				if c := p.Price(1, lambda); c < min {
					min = c
				}
			}
			if best.Cost > min*(1+1e-12) {
				t.Errorf("λ=%.1f m=%.0f: BestSortPlanP %s at %.6g, candidate minimum %.6g",
					lambda, m, best.Algo, best.Cost, min)
			}
			if got := best.Profile.Price(1, lambda); math.Abs(got-best.Cost) > 1e-9*(1+best.Cost) {
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
				if c := p.Price(1, lambda); c < min {
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

// TestSampleCurveInterpolation: sampling a known function and reading it
// back must clamp at the ends and interpolate monotonically in between.
func TestSampleCurveInterpolation(t *testing.T) {
	price := func(m float64) float64 { return 1000 / m }
	c := SampleCurve(price, 2, 512, 16)
	if len(c.M) != 16 || c.M[0] != 2 || c.M[15] != 512 {
		t.Fatalf("grid endpoints wrong: %v", c.M)
	}
	if got := c.Cost(1); got != c.C[0] {
		t.Errorf("below-range Cost = %g, want clamp to %g", got, c.C[0])
	}
	if got := c.Cost(1 << 20); got != c.C[15] {
		t.Errorf("above-range Cost = %g, want clamp to %g", got, c.C[15])
	}
	prev := math.Inf(1)
	for m := 2.0; m <= 512; m *= 1.3 {
		got := c.Cost(m)
		if got > prev+1e-9 {
			t.Errorf("interpolated curve not non-increasing at m=%.1f: %g after %g", m, got, prev)
		}
		prev = got
		if want := price(m); math.Abs(got-want)/want > 0.25 {
			t.Errorf("Cost(%.1f) = %g, want within 25%% of %g", m, got, want)
		}
	}
	if mb := c.Marginal(2, 100); mb <= 0 {
		t.Errorf("Marginal on a falling curve = %g, want positive", mb)
	}
	if mb := c.Marginal(512, 100); mb != 0 {
		t.Errorf("Marginal past the sampled range = %g, want 0 (clamped)", mb)
	}
}
