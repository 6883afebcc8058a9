package cost

import (
	"math"
	"testing"

	"wlpm/internal/algo"
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
				Emit{}.ExMS(tb, m),
				Emit{}.SelS(tb, m),
				Emit{}.LaS(tb, m, lambda),
				Emit{}.SegS(BestKnobP(lambda, 1, func(x float64) Profile { return Emit{}.SegS(x, tb, m) },
					SegmentSortOptimalX(tb, m, lambda)), tb, m),
				Emit{}.HybS(BestKnobP(lambda, 1, func(x float64) Profile { return Emit{}.HybS(x, tb, m) }), tb, m),
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

// TestBestJoinPlanIsArgmin is the join twin, against every join of the
// catalog: the four knobless ones BestJoinPlanEmit prices, and HybJ on a
// fine (x, y) grid plus its saddle and SegJ at every partition count it
// can offload, which it leaves out. Each (t, v, m, λ) point is priced
// emitting as profiled, handed on, re-sized and over a wider source, at
// P = 1 and 4.
func TestBestJoinPlanIsArgmin(t *testing.T) {
	var knobs []float64 // 0, 0.02, …, 1
	for i := 0; i <= 50; i++ {
		knobs = append(knobs, float64(i)/50)
	}
	for _, lambda := range []float64{1.5, 15, 40} {
		for _, tv := range [][2]float64{{1000, 1000}, {1000, 10000}} {
			tb, vb := tv[0], tv[1]
			for _, frac := range []float64{0.002, 0.01, 0.05, 0.15, 0.5} {
				m := tb * frac
				for _, em := range []Emit{{}, {Handed: true}, {Out: 2 * vb}, {Source: 3 * tb}} {
					for _, par := range []float64{1, 4} {
						best := BestJoinPlanEmit(tb, vb, m, lambda, par, em)
						min, minName := math.Inf(1), ""
						try := func(name string, p Profile) {
							if c := p.PriceP(1, lambda, par); c < min {
								min, minName = c, name
							}
						}
						try("NLJ", em.NLJ(tb, vb, m))
						try("GJ", em.GJ(tb, vb))
						try("HJ", em.HJ(tb, vb, m))
						try("LaJ", em.LaJ(tb, vb, m, lambda))
						sx, sy := HybridJoinSaddle(tb, vb, m, lambda)
						try("HybJ saddle", em.HybJ(sx, sy, tb, vb, m))
						for _, x := range knobs {
							for _, y := range knobs {
								try("HybJ", em.HybJ(x, y, tb, vb, m))
							}
						}
						k := math.Ceil(algo.HashTableExpansion * tb / m)
						for i := 0.0; i <= k; i++ {
							try("SegJ", em.SegJ(i/k, tb, vb, m))
						}
						for _, x := range knobs {
							try("SegJ", em.SegJ(x, tb, vb, m))
						}
						if best.Cost > min*(1+1e-12) {
							t.Errorf("λ=%.1f t=%.0f v=%.0f m=%.0f %+v P=%.0f: BestJoinPlanEmit %s at %.6g above %s at %.6g",
								lambda, tb, vb, m, em, par, best.Algo, best.Cost, minName, min)
						}
						if got := best.Profile.PriceP(1, lambda, par); got != best.Cost {
							t.Errorf("plan cost %.6g disagrees with its own profile %.6g", best.Cost, got)
						}
					}
				}
			}
		}
	}
}
