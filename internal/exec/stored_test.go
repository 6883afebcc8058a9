package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/joins"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// Every operator result that lives in a temporary goes through one
// value (stored: fill, scan, drop), so its five users are held to the
// same contract by one test: whichever side of the temp fails — the
// fill that writes it or the consumer that reads it — the run surfaces
// that one error and leaves no temporary and no goroutine behind. A fed
// result has no temp of its own, and neither has a fed stage's, which its
// reader pulls: what can fail under them are the runs of the intake, and
// the same contract holds for those.

// storedShapes put each user of the stored value under a Limit root, so
// its result goes to a temp through fill instead of straight into the
// plan output; temp is the name prefix of that temporary.
var storedShapes = []struct {
	name, temp string
	budget     int64
	opts       CompileOptions
	fold       foldPath
	build      func(t *testing.T, r *rig) *Plan
}{
	{"orderby", "sorted", bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadRows(t, r)).OrderByWith(sorts.NewExternalMergeSort())
	}},
	{"groupby", "grouped", bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadGrouped(t, r, "in", bgRows, 300)).GroupByWith(4, sorts.NewSegmentSort(0.5))
	}},
	{"join", "joined", bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, bgDim, bgFact)
		return Table(dim1).JoinWith(Table(fact), joins.NewGrace())
	}},
	{"materialize", "mat", bgBudget, CompileOptions{MaterializeEveryStep: true}, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadRows(t, r)).Filter(batchPred)
	}},
	{"fold-evict", "run", 16 << 10, CompileOptions{}, foldEvict, func(t *testing.T, r *rig) *Plan {
		// 50 hinted groups fit the fold's 204 slots, 1000 real ones do not:
		// the intake evicts to runs, and the limit pulls their final merge,
		// which no temp stands between — a fill fails in a run, a consumer
		// mid-pull.
		return Table(loadGrouped(t, r, "in", 4000, 1000)).GroupHint(50).GroupBy(4)
	}},
	{"pipe", "pipe", bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadRows(t, r)).Limit(bgRows - 100).OrderByWith(sorts.NewExternalMergeSort())
	}},
	// Fed shapes (TestFeedIdentityGrid proves they are): the producer's
	// emit fails inside the consumer's run formation, mid-probe for the
	// join and mid-drain for the limit; the first shape's group-by also
	// fails while its own final merge is emitting into the order-by's
	// intake (ordered by an aggregate, the order-by keeps its stage); the
	// second, ordered by the group key, has no order-by stage at all.
	{"fed-join-groupby-orderby", "run", 2 * bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, bgDim, bgFact)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupHint(bgDim).GroupBy(3).Project(byAgg...).OrderBy()
	}},
	{"fed-join-groupby-elided-orderby", "run", 2 * bgBudget * aggregate.PartialSize / record.Size, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		dim1, _, fact := r.loadStar(t, bgDim, bgFact)
		return Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupHint(bgDim).GroupBy(3).OrderBy()
	}},
	{"fed-limit-orderby", "run", 4 * bgBudget, CompileOptions{}, foldAny, func(t *testing.T, r *rig) *Plan {
		return Table(loadRows(t, r)).Limit(bgRows - 100).OrderBy()
	}},
}

func TestStoredFailureLeaksNothing(t *testing.T) {
	boom := errors.New("device full")
	for _, sh := range storedShapes {
		for _, where := range []string{"fill", "consumer"} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/p%d", sh.name, where, par), func(t *testing.T) {
					r := newRig(t)
					// A fill fails on the 25th record written to the temp; a
					// consumer failure leaves the temp whole and refuses the
					// 25th record of the plan output instead.
					fac := &testkit.FailingTemps{Prefix: sh.temp, N: 1 << 30, Err: boom}
					s := runSpec{budget: sh.budget, par: par, opts: sh.opts, err: boom,
						fac: func(f storage.Factory) storage.Factory { fac.Factory = f; return fac }}
					if where == "fill" {
						fac.N = 25
					} else {
						s.out = func(c storage.Collection) storage.Collection {
							return &testkit.FailAfter{Collection: c, N: 25, Err: boom}
						}
					}
					base := runtime.NumGoroutine()
					res := r.runPlan(t, sh.build(t, r).Limit(50), s)
					if fac.Hits() == 0 {
						t.Fatalf("no %q temporary was created: the shape no longer stores its result", sh.temp)
					}
					if strings.HasPrefix(sh.name, "fed-") && fedChoices(res.ex) == 0 {
						t.Fatalf("no stage of %s ran fed; the failure landed in a stored sort:\n%s", res.root.Name(), res.ex)
					}
					checkFoldPath(t, sh.fold, res.temps)
					testkit.WaitGoroutines(t, base)
				})
			}
		}
	}
}
