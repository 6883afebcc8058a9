package sorts

import (
	"math"
	"testing"

	"wlpm/internal/cost"
)

// TestCatalog round-trips the family's one declaration: every planner
// name builds through New (surplus knobs ignored), every DSL spelling
// through Parse, both give the algorithm its name promises, and each
// prices itself exactly as the cost package's constructor for it does —
// the pairing the planner's pinned-algorithm type switch used to hold.
func TestCatalog(t *testing.T) {
	const tt, m, lambda = 4000.0, 200.0, 15.0
	em := cost.Emit{Out: 300, Serial: true}
	cases := []struct {
		planner  string
		knobs    []float64
		spelling string
		name     string
		profile  cost.Profile
	}{
		{cost.SortExMS, nil, "ExMS", "ExMS", em.ExMS(tt, m)},
		{cost.SortSelS, nil, "SelS", "SelS", em.SelS(tt, m)},
		{cost.SortLaS, nil, "LaS", "LaS", em.LaS(tt, m, lambda)},
		{cost.SortSegS, []float64{0.4}, " SegS : 0.4 ", "SegS(0.40)", em.SegS(0.4, tt, m)},
		{cost.SortHybS, []float64{0.25}, "HybS:0.25", "HybS(0.25)", em.HybS(0.25, tt, m)},
	}
	if len(cases) != len(catalog.Entries) {
		t.Fatalf("%d catalog entries, %d covered here", len(catalog.Entries), len(cases))
	}
	for _, c := range cases {
		built, err := New(c.planner, append(c.knobs, 0.9, 0.9)...)
		if err != nil {
			t.Fatalf("New(%q): %v", c.planner, err)
		}
		parsed, err := Parse(c.spelling)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spelling, err)
		}
		for _, a := range []Algorithm{built, parsed} {
			if a.Name() != c.name {
				t.Errorf("%s: built %s", c.spelling, a.Name())
			}
			if got := a.Profile(em, tt, m, lambda); got != c.profile {
				t.Errorf("%s: Profile %+v, cost package says %+v", a.Name(), got, c.profile)
			}
		}
	}
	auto := em.SegS(cost.SegSKnob(tt, m, lambda, 1, cost.Emit{}), tt, m)
	if got := NewAutoSegmentSort().Profile(em, tt, m, lambda); got != auto {
		t.Errorf("SegS(auto): Profile %+v, want the planner's serial placement's %+v", got, auto)
	}

	const have = " (sorts: ExMS SelS LaS SegS:<x> HybS:<x>)"
	for spelling, want := range map[string]string{
		"ZS":       `unknown algorithm "ZS"` + have,
		"ZS:7":     `unknown algorithm "ZS"` + have,
		"SegS":     `algorithm "SegS" takes 1 knob(s), got 0` + have,
		"ExMS:0.5": `algorithm "ExMS" takes 0 knob(s), got 1` + have,
		"SegS:2":   `bad knob "2" (want a fraction in [0, 1])` + have,
		"HybS:x":   `bad knob "x" (want a fraction in [0, 1])` + have,
		"SegS:NaN": `bad knob "NaN" (want a fraction in [0, 1])` + have,
		"HybS:nan": `bad knob "nan" (want a fraction in [0, 1])` + have,
	} {
		if _, err := Parse(spelling); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): %v, want %s", spelling, err, want)
		}
	}
	if _, err := New(cost.SortSegS); err == nil {
		t.Error("New(SegS) without its knob accepted")
	}
}

// TestAutoSegmentSortPricesThePlannersSegS: over a (t, m, λ) grid,
// SegS(auto) prices at the serial SegS price of the planner's search —
// the 0.05 grid seeded with Eq. 4, spelled out here — never above Eq. 4's
// own placement, and exactly at BestSortPlanP's cost wherever that picks
// SegS.
func TestAutoSegmentSortPricesThePlannersSegS(t *testing.T) {
	picked := 0
	for _, tt := range []float64{400, 4000, 40000} {
		for _, frac := range []float64{0.01, 0.05, 0.15} {
			for _, lambda := range []float64{1.5, 5, 15, 40} {
				m := tt * frac
				got := NewAutoSegmentSort().Profile(cost.Emit{}, tt, m, lambda).PriceP(1, lambda, 1)
				price := func(x float64) float64 { return cost.Emit{}.SegS(x, tt, m).PriceP(1, lambda, 1) }
				eq4 := cost.SegmentSortOptimalX(tt, m, lambda)
				want := price(eq4)
				if got > want {
					t.Errorf("t=%.0f m=%.0f λ=%.1f: SegS(auto) priced %.6g above Eq. 4's x = %.3f at %.6g", tt, m, lambda, got, eq4, want)
				}
				for i := 0; i <= 20; i++ {
					want = math.Min(want, price(float64(i)*0.05))
				}
				if got != want {
					t.Errorf("t=%.0f m=%.0f λ=%.1f: SegS(auto) priced %.6g, the planner's SegS %.6g", tt, m, lambda, got, want)
				}
				if best := cost.BestSortPlanP(tt, m, lambda, 1); best.Algo == cost.SortSegS {
					picked++
					if best.Cost != got {
						t.Errorf("t=%.0f m=%.0f λ=%.1f: BestSortPlanP's SegS costs %.6g, SegS(auto) %.6g", tt, m, lambda, best.Cost, got)
					}
				}
			}
		}
	}
	if picked == 0 {
		t.Error("the planner picks SegS nowhere on the grid: the last check never ran")
	}
}
