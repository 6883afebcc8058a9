package algo

import (
	"fmt"
	"strconv"
	"strings"
)

// Entry declares one algorithm of a family: the name the cost model's
// planner, the plan DSL and the CLIs all know it by, how many
// write-intensity knobs it takes, and its constructor. It is the only
// place the three are tied together.
type Entry[A any] struct {
	Name  string
	Knobs int
	New   func(knobs []float64) A
}

// Catalog is a family's declaration table (sorts.New/Parse and
// joins.New/Parse sit on one each). Adding an algorithm is one file plus
// one entry.
type Catalog[A any] struct {
	Family  string // "sorts" or "joins": names the family in lookup errors
	Entries []Entry[A]
}

// New builds the named algorithm with its knobs placed from the leading
// values of knobs. Callers carry a fixed-width knob vector whatever the
// algorithm (cost.SortPlan's Intensity, a CLI's -x and -y), so surplus
// values are ignored; missing ones are an error.
func (c Catalog[A]) New(name string, knobs ...float64) (a A, err error) {
	e, err := c.entry(name, len(knobs), true)
	if err != nil {
		return a, err
	}
	return e.New(knobs[:e.Knobs]), nil
}

// Parse builds an algorithm from its DSL spelling "Name:k1:k2": exactly
// the algorithm's knob count, each a fraction in [0, 1].
func (c Catalog[A]) Parse(s string) (a A, err error) {
	parts := strings.Split(s, ":")
	e, err := c.entry(strings.TrimSpace(parts[0]), len(parts)-1, false)
	if err != nil {
		return a, err
	}
	knobs := make([]float64, e.Knobs)
	for i, ks := range parts[1:] {
		if knobs[i], err = strconv.ParseFloat(strings.TrimSpace(ks), 64); err != nil || !(knobs[i] >= 0 && knobs[i] <= 1) {
			return a, c.errorf("bad knob %q (want a fraction in [0, 1])", ks)
		}
	}
	return e.New(knobs), nil
}

// entry looks name up and checks it can be given got knobs: exactly its
// count, or more when surplus is allowed.
func (c Catalog[A]) entry(name string, got int, surplus bool) (Entry[A], error) {
	for _, e := range c.Entries {
		if e.Name != name {
			continue
		}
		if got < e.Knobs || got > e.Knobs && !surplus {
			return e, c.errorf("algorithm %q takes %d knob(s), got %d", name, e.Knobs, got)
		}
		return e, nil
	}
	return Entry[A]{}, c.errorf("unknown algorithm %q", name)
}

// Spellings lists the family's DSL spellings ("ExMS", "SegS:<x>",
// "HybJ:<x>:<y>") in catalog order.
func (c Catalog[A]) Spellings() []string {
	out := make([]string, len(c.Entries))
	for i, e := range c.Entries {
		out[i] = e.Name + [...]string{"", ":<x>", ":<x>:<y>"}[e.Knobs]
	}
	return out
}

// errorf formats a lookup error followed by the spellings the family has.
func (c Catalog[A]) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" (%s: %s)", append(args, c.Family, strings.Join(c.Spellings(), " "))...)
}
