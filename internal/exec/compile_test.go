package exec

import (
	"testing"

	"wlpm/internal/sorts"
	"wlpm/internal/stats"
	"wlpm/internal/storage"
)

// countingStats is a statistics provider that counts its lookups.
type countingStats struct {
	stats.Provider
	calls int
}

func (s *countingStats) TableStats(c storage.Collection) *stats.Table {
	s.calls++
	return s.Provider.TableStats(c)
}

// TestCompileEstimatesOncePerScan: one compile estimates every plan node
// once, so it asks the statistics provider once per base-table scan —
// the join-order rewrite and the stages it prices share the estimates.
func TestCompileEstimatesOncePerScan(t *testing.T) {
	r := newRig(t)
	dim1, dim2, fact := r.loadStar(t, testDim, testFact)
	for name, sh := range map[string]struct {
		plan  *Plan
		scans int
	}{
		"star":          {Table(dim1).Join(Table(fact)).Project(starCols...).GroupBy(3).OrderBy(), 2},
		"join-chain":    {Table(fact).Join(Table(dim1)).Join(Table(dim2)).Project(0, 1, 2).OrderBy(), 3},
		"filter-sorted": {Table(fact).Filter(Predicate{Attr: 1, Op: Lt, Value: 500}).OrderBy(), 1},
	} {
		ctx := r.ctx(testBudget, 1)
		counted := &countingStats{Provider: stats.NewCache(true)}
		ctx.Stats = counted
		if _, _, err := Compile(ctx, sh.plan); err != nil {
			t.Fatal(err)
		}
		if counted.calls != sh.scans {
			t.Errorf("%s: %d statistics lookups for %d scans", name, counted.calls, sh.scans)
		}
	}
}

// TestCompileStageShapes walks the shapes that reach every decision
// compile takes from the operator tree beneath a stage: whether its
// input may be fed and whether a join or group-by is handed to it
// (feeding), the width a join's build side is read at where it lies
// (sourceWidth), and whether a chain step above a stage narrows the
// stage's output term (narrow). Each stage is checked before allocation.
func TestCompileStageShapes(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, testDim, testFact)
	pin := sorts.NewExternalMergeSort()
	gate := Predicate{Attr: 1, Op: Ge, Value: 3}
	joined := func() *Plan { return Table(dim1).Join(Table(fact)) }
	type stage struct {
		op                         string
		feedable, onDevice, handed bool
		lsrc                       int    // join: bytes per build record read where it lies
		out                        [2]int // rows and width its output term prices; zero: none
	}
	for name, sh := range map[string]struct {
		plan   *Plan
		mat    bool
		stages []stage
	}{
		"join-project-groupby": {
			plan: joined().Project(starCols...).GroupBy(3),
			stages: []stage{
				{op: "Join", handed: true, lsrc: 80, out: [2]int{testFact, 80}},
				{op: "GroupBy", feedable: true, out: [2]int{testFact, 80}},
			},
		},
		"groupby-elided-orderby-project": {
			plan:   Table(fact).GroupHint(testDim).GroupBy(3).OrderBy().Project(0, 1),
			stages: []stage{{op: "GroupBy", feedable: true, onDevice: true, out: [2]int{testDim, 16}}},
		},
		"limit-filter-groupby": {
			plan:   Table(fact).Limit(1500).Filter(gate).GroupBy(2),
			stages: []stage{{op: "GroupBy", feedable: true, out: [2]int{750, 80}}},
		},
		"scan-filter-groupby": {
			plan:   Table(fact).Filter(gate).GroupBy(2),
			stages: []stage{{op: "GroupBy", feedable: true, onDevice: true, out: [2]int{testFact / 2, 80}}},
		},
		"pinned-orderby": {
			plan: joined().Project(starCols...).OrderByWith(pin),
			stages: []stage{
				{op: "Join", lsrc: 80, out: [2]int{testFact, 80}},
				{op: "OrderBy"},
			},
		},
		"orderby-over-sorted-view": {
			plan:   Table(fact).OrderByWith(pin).Project(1, 0).OrderBy(),
			stages: []stage{{op: "OrderBy"}, {op: "OrderBy"}},
		},
		"materialize-every-step": {
			plan: joined().Project(starCols...).GroupBy(3),
			mat:  true,
			stages: []stage{
				{op: "Join", lsrc: 80, out: [2]int{testFact, 160}},
				{op: "GroupBy", out: [2]int{testFact, 80}},
			},
		},
		"materialize-projected-build": {
			plan:   Table(dim1).Project(0, 1, 2).Join(Table(fact)).OrderBy(),
			mat:    true,
			stages: []stage{{op: "Join", lsrc: 24, out: [2]int{testFact, 104}}, {op: "OrderBy"}},
		},
		// The second filter joins the Stream above the order-by, which is
		// chainOf's own operator but not the stage's: nothing narrows.
		"pinned-orderby-filter-filter": {
			plan:   Table(fact).OrderByWith(pin).Filter(gate).Filter(gate),
			stages: []stage{{op: "OrderBy"}},
		},
	} {
		c, err := newCompiler(r.ctx(testBudget, 1), sh.plan, CompileOptions{MaterializeEveryStep: sh.mat})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.stages) != len(sh.stages) {
			t.Errorf("%s: %d stages, want %d", name, len(c.stages), len(sh.stages))
			continue
		}
		for i, want := range sh.stages {
			s := c.stages[i]
			out := 0.0
			if want.out[0] > 0 {
				out = c.buffers(want.out[0], want.out[1])
			}
			got := stage{op: s.op, feedable: s.feedable, onDevice: s.onDevice, handed: s.handed, lsrc: s.lsrc, out: want.out}
			if got != want || s.outBuf != out {
				t.Errorf("%s: stage %d is %+v pricing %.0f output buffers, want %+v pricing %.0f", name, i, got, s.outBuf, want, out)
			}
		}
	}
}
