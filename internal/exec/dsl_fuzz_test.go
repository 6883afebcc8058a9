package exec

import (
	"fmt"
	"reflect"
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

// FuzzParsePlan feeds the plan DSL arbitrary text over two fixed tables,
// dim and fact. Whatever arrives, ParsePlan must not panic, and every
// algorithm a plan it accepts pins has each knob in [0, 1]: a knob outside
// it (NaN passes a bare x < 0 || x > 1) reaches a kernel that then spins
// or runs another algorithm. The seed corpus is testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	fac, err := all.New("blocked", pmem.MustOpen(pmem.Config{Capacity: 1 << 20}), 0)
	if err != nil {
		f.Fatal(err)
	}
	tables := map[string]storage.Collection{}
	for _, name := range []string{"dim", "fact"} {
		if tables[name], err = fac.Create(name, record.Size); err != nil {
			f.Fatal(err)
		}
	}
	lookup := func(name string) (storage.Collection, error) {
		if c, ok := tables[name]; ok {
			return c, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlan(src, lookup)
		if err != nil {
			return
		}
		for _, a := range pinnedAlgorithms(p) {
			if k, ok := outOfRangeKnob(a); ok {
				t.Fatalf("%q pins %s with knob %v", src, a.Name(), k)
			}
		}
	})
}

// pinnedAlgorithms lists the sorts and joins pinned anywhere in p.
func pinnedAlgorithms(p *Plan) []interface{ Name() string } {
	if p == nil {
		return nil
	}
	var out []interface{ Name() string }
	if p.sortA != nil {
		out = append(out, p.sortA)
	}
	if p.joinA != nil {
		out = append(out, p.joinA)
	}
	return append(append(out, pinnedAlgorithms(p.left)...), pinnedAlgorithms(p.right)...)
}

// outOfRangeKnob returns a float field of a's struct, the catalogs' knob
// fields, that lies outside [0, 1].
func outOfRangeKnob(a any) (float64, bool) {
	v := reflect.Indirect(reflect.ValueOf(a))
	if v.Kind() != reflect.Struct {
		return 0, false
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && !(f.Float() >= 0 && f.Float() <= 1) {
			return f.Float(), true
		}
	}
	return 0, false
}
