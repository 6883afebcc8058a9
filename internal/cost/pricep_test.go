package cost

import (
	"math"
	"testing"
)

// TestPricePSerialConsistency: par=1 is Price, and price never increases
// with par (the serial floor is the limit).
func TestPricePSerialConsistency(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	profiles := map[string]Profile{
		"ExMS":      ExMSProfile(tt, m),
		"SelS":      SelSProfile(tt, m),
		"SegS(0.6)": SegSProfile(0.6, tt, m),
		"HybS(0.4)": HybSProfile(0.4, tt, m),
		"LaS":       LaSProfile(tt, m, lambda),
		"GJ":        GJProfile(tt, v),
		"NLJ":       NLJProfile(tt, v, m),
		"HJ":        HJProfile(tt, v, m),
		"LaJ":       LaJProfile(tt, v, m, lambda),
		"HybJ":      HybJProfile(0.5, 0.5, tt, v, m),
		"SegJ(0.5)": SegJProfile(0.5, tt, v, m),
	}
	for name, p := range profiles {
		if got, want := p.PriceP(1, lambda, 1), p.Price(1, lambda); got != want {
			t.Errorf("%s: PriceP(par=1) = %v, Price = %v", name, got, want)
		}
		prev := p.PriceP(1, lambda, 1)
		for _, par := range []float64{2, 4, 8, 16} {
			cur := p.PriceP(1, lambda, par)
			if cur > prev+1e-9 {
				t.Errorf("%s: price rose from %v to %v at par=%v", name, prev, cur, par)
			}
			floor := p.SerialReads + p.SerialWrites*lambda
			if cur < floor-1e-9 {
				t.Errorf("%s: price %v fell below serial floor %v at par=%v", name, cur, floor, par)
			}
			prev = cur
		}
	}
}

// TestPricePSerialInvariant: fully serial profiles gain nothing from
// parallelism; fully parallel ones divide exactly by par.
func TestPricePSerialInvariant(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	for name, p := range map[string]Profile{
		"SelS": SelSProfile(tt, m),
		"LaS":  LaSProfile(tt, m, lambda),
		"HJ":   HJProfile(tt, v, m),
		"LaJ":  LaJProfile(tt, v, m, lambda),
	} {
		if got, want := p.PriceP(1, lambda, 8), p.Price(1, lambda); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s is serial but PriceP(8) = %v, Price = %v", name, got, want)
		}
	}
	for name, p := range map[string]Profile{
		"ExMS": ExMSProfile(tt, m),
		"GJ":   GJProfile(tt, v),
	} {
		if got, want := p.PriceP(1, lambda, 8), p.Price(1, lambda)/8; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s is fully parallel but PriceP(8) = %v, want %v", name, got, want)
		}
	}
}

// TestBestSortPlanPShiftsChoice: at the paper's λ the write-minimal
// serial sorts win small memories serially, but parallelism discounts
// ExMS/HybS and must never make the chosen plan more expensive.
func TestBestSortPlanPShiftsChoice(t *testing.T) {
	const tt, m, lambda = 100000.0, 5000.0, 15.0
	serial := BestSortPlanP(tt, m, lambda, 1)
	prev := serial.Cost
	for _, par := range []float64{2, 4, 8} {
		plan := BestSortPlanP(tt, m, lambda, par)
		if plan.Cost > prev+1e-9 {
			t.Errorf("best sort cost rose from %v to %v at par=%v", prev, plan.Cost, par)
		}
		prev = plan.Cost
	}
	// At high parallelism the fully parallel ExMS outruns every
	// serial-floored candidate at this operating point.
	if plan := BestSortPlanP(tt, m, lambda, 64); plan.Algo != SortExMS && plan.Algo != SortHybS {
		t.Errorf("par=64 picked %s (cost %v), want a parallel-phase sort", plan.Algo, plan.Cost)
	}
}

// TestBestJoinPlanPMonotone mirrors the sort check for joins.
func TestBestJoinPlanPMonotone(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	serial := BestJoinPlanP(tt, v, m, lambda, 1)
	prev := serial.Cost
	for _, par := range []float64{2, 4, 8} {
		plan := BestJoinPlanP(tt, v, m, lambda, par)
		if plan.Cost > prev+1e-9 {
			t.Errorf("best join cost rose from %v to %v at par=%v", prev, plan.Cost, par)
		}
		prev = plan.Cost
	}
}
