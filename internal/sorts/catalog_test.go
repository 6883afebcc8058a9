package sorts

import (
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
	auto := em.SegS(cost.SegmentSortOptimalX(tt, m, lambda), tt, m)
	if got := NewAutoSegmentSort().Profile(em, tt, m, lambda); got != auto {
		t.Errorf("SegS(auto): Profile %+v, want the Eq. 4 placement's %+v", got, auto)
	}

	const have = " (sorts: ExMS SelS LaS SegS:<x> HybS:<x>)"
	for spelling, want := range map[string]string{
		"ZS":       `unknown algorithm "ZS"` + have,
		"ZS:7":     `unknown algorithm "ZS"` + have,
		"SegS":     `algorithm "SegS" takes 1 knob(s), got 0` + have,
		"ExMS:0.5": `algorithm "ExMS" takes 0 knob(s), got 1` + have,
		"SegS:2":   `bad knob "2" (want a fraction in [0, 1])` + have,
		"HybS:x":   `bad knob "x" (want a fraction in [0, 1])` + have,
	} {
		if _, err := Parse(spelling); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): %v, want %s", spelling, err, want)
		}
	}
	if _, err := New(cost.SortSegS); err == nil {
		t.Error("New(SegS) without its knob accepted")
	}
}
