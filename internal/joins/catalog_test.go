package joins

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
	const tt, v, m, lambda = 1000.0, 10000.0, 50.0, 15.0
	em := cost.Emit{Out: 20000}
	cases := []struct {
		planner  string
		knobs    []float64
		spelling string
		name     string
		profile  cost.Profile
	}{
		{cost.JoinNLJ, nil, "NLJ", "NLJ", em.NLJ(tt, v, m)},
		{cost.JoinHJ, nil, "HJ", "HJ", em.HJ(tt, v, m)},
		{cost.JoinGJ, nil, "GJ", "GJ", em.GJ(tt, v)},
		{cost.JoinLaJ, nil, "LaJ", "LaJ", em.LaJ(tt, v, m, lambda)},
		{cost.JoinSegJ, []float64{0.4}, "SegJ:0.4", "SegJ(0.40)", em.SegJ(0.4, tt, v, m)},
		{cost.JoinHybJ, []float64{0.5, 0.25}, " HybJ : 0.5 : 0.25 ", "HybJ(0.50,0.25)", em.HybJ(0.5, 0.25, tt, v, m)},
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
			if got := a.Profile(em, tt, v, m, lambda); got != c.profile {
				t.Errorf("%s: Profile %+v, cost package says %+v", a.Name(), got, c.profile)
			}
		}
	}
	const have = " (joins: NLJ HJ GJ LaJ SegJ:<x> HybJ:<x>:<y>)"
	for spelling, want := range map[string]string{
		"ZJ":           `unknown algorithm "ZJ"` + have,
		"HybJ:0.5":     `algorithm "HybJ" takes 2 knob(s), got 1` + have,
		"GJ:0.5":       `algorithm "GJ" takes 0 knob(s), got 1` + have,
		"SegJ:-0.1":    `bad knob "-0.1" (want a fraction in [0, 1])` + have,
		"HybJ:0.5:y":   `bad knob "y" (want a fraction in [0, 1])` + have,
		"HybJ:NaN:0.5": `bad knob "NaN" (want a fraction in [0, 1])` + have,
		"SegJ:+NaN":    `bad knob "+NaN" (want a fraction in [0, 1])` + have,
	} {
		if _, err := Parse(spelling); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): %v, want %s", spelling, err, want)
		}
	}
	if _, err := New(cost.JoinHybJ, 0.5); err == nil {
		t.Error("New(HybJ) with one of its two knobs accepted")
	}
}
