package exec

import (
	"bytes"
	"fmt"
	"testing"

	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
)

// TestPlansReadInPlace holds two plans to the contract of blocked
// memory's in-place reads, at P = 1 and P = 4, on a factory that
// poisons every collection it drops (storage.PoisonOnDestroy): a fed
// plan — the join feeds the group-by, whose final merge feeds the
// order-by — run to an output, and a group-by pulled through a cursor
// under a limit, its fold evicting runs. Neither may write through a
// view of its input tables (their bytes are the same after the run) or
// read a temp once dropped (its rows are still the materialize-every-
// step reference's).
func TestPlansReadInPlace(t *testing.T) {
	const limit = 10
	star := func(r *rig) (*Plan, []storage.Collection) {
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupHint(feedDim / 10).GroupBy(3), []storage.Collection{dim1, fact}
	}
	plans := []struct {
		name   string
		budget int64
		opts   CompileOptions
		build  func(r *rig) (*Plan, []storage.Collection)
		cursor bool
	}{
		{"fed", feedFact * record.Size / 2, CompileOptions{}, func(r *rig) (*Plan, []storage.Collection) {
			p, in := star(r)
			return p.Project(1, 0, 2).OrderBy(), in
		}, false},
		{"cursor-limit", feedFact * record.Size / 8, CompileOptions{shares: []int64{feedFact*record.Size/8 - 5272, 5272}}, func(r *rig) (*Plan, []storage.Collection) {
			p, in := star(r)
			return p.Limit(limit), in
		}, true},
	}
	for _, pl := range plans {
		ref := newRig(t)
		refPlan, _ := pl.build(ref)
		want := ref.runPlan(t, refPlan, runSpec{budget: pl.budget, par: 1, opts: CompileOptions{MaterializeEveryStep: true}}).out
		if len(want) == 0 {
			t.Fatalf("%s: the reference returned no rows", pl.name)
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", pl.name, par), func(t *testing.T) {
				dev := pmem.MustOpen(pmem.Config{Capacity: rigDevice})
				r := &rig{dev: dev, fac: storage.PoisonOnDestroy(blocked.New(dev, 0))}
				plan, inputs := pl.build(r)
				var before [][]byte
				for _, in := range inputs {
					before = append(before, readBytes(t, in))
				}
				res := r.runPlan(t, plan, runSpec{budget: pl.budget, par: par, opts: pl.opts, cursor: pl.cursor})
				if fedChoices(res.ex) == 0 {
					t.Fatalf("no stage ran fed:\n%s", res.ex)
				}
				if !bytes.Equal(res.out, want) {
					t.Errorf("output differs from the materialize-every-step reference (%d vs %d bytes)", len(res.out), len(want))
				}
				for i, in := range inputs {
					if !bytes.Equal(readBytes(t, in), before[i]) {
						t.Errorf("the plan wrote through a view of %s", in.Name())
					}
				}
			})
		}
	}
}
