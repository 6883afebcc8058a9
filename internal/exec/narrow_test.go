package exec

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/joins"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// Build-side narrowing (reorder.go) and the 40-byte partial are each held
// to something other than themselves: the narrowed plan to the bytes of
// the materialize-every-step run of the plan as written and to the writes
// of the pipelined plan compiled as written (whole build records), the
// partial to the share it is held in.

// narrowBudget is the plan budget of the narrowing grid: every stage
// well above the two-buffer floor.
const narrowBudget = bgFact * record.Size / 4

// narrowJoins are every join the catalog ships, pinned, and the planner's
// choice (nil).
var narrowJoins = []joins.Algorithm{
	nil, joins.NewNestedLoops(), joins.NewHash(), joins.NewGrace(),
	joins.NewHybridGraceNL(0.5, 0.5), joins.NewSegmentedGrace(0.5), joins.NewLazyHash(),
}

// narrowLefts are the build inputs a projection is pushed under: a base
// table and a filter view over one (the projection becomes a view of the
// table), a join's result and a group-by's (it is absorbed into their
// emit). The view filters on a2, which no chain above the join reads, so
// the pushed projection drops the column its own filter read.
var narrowLefts = []struct {
	name  string
	build func(t *testing.T, r *rig, dim1, dim2 storage.Collection) *Plan
}{
	{"table", func(_ *testing.T, _ *rig, dim1, _ storage.Collection) *Plan { return Table(dim1) }},
	{"filter-view", func(_ *testing.T, _ *rig, dim1, _ storage.Collection) *Plan {
		return Table(dim1).Filter(Predicate{Attr: 2, Op: Ge, Value: 10})
	}},
	{"join", func(_ *testing.T, _ *rig, dim1, dim2 storage.Collection) *Plan {
		return Table(dim2).JoinWith(Table(dim1), joins.NewNestedLoops())
	}},
	{"groupby", func(t *testing.T, r *rig, _, _ storage.Collection) *Plan {
		return Table(loadGrouped(t, r, "grouped-in", 4*bgDim, bgDim)).GroupHint(bgDim).GroupBy(4)
	}},
}

// narrowChains read a few of the join's left attributes (left is the left
// input's width in attributes): a projection, and a filter on a left
// column the projection above it then drops.
var narrowChains = []struct {
	name  string
	apply func(p *Plan, left int) *Plan
}{
	{"project", func(p *Plan, left int) *Plan { return p.Project(0, 1, left+2, left+3) }},
	{"filter-dropped", func(p *Plan, left int) *Plan {
		return p.Filter(Predicate{Attr: 3, Op: Ge, Value: 5}).Project(0, left+1, 1)
	}},
}

// findJoin returns the topmost Join of a tree.
func findJoin(op Operator) *Join {
	if j, ok := op.(*Join); ok {
		return j
	}
	for _, c := range op.Children() {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

// TestBuildNarrowingMatchesReference: under an order-by, a chain over a
// join — every join, pinned and planned, over a table, a filter view, a
// join's result and a group-by's — compiles with its join's build side
// projected to the attributes the chain reads and emits the
// materialize-every-step reference's bytes at every parallelism and batch
// size. What the narrowing itself writes is checked with the order-by
// pinned to SelS, which writes its output once in whatever order its
// input arrives, at the shares the plan compiled as written gets: no more
// than as written. (Left to the planner, a fed ExMS order-by forms other
// runs from the rows a narrower build side emits in another order, and
// the allocator splits the budget by the narrower prices: CHANGES.md has
// that grid.)
func TestBuildNarrowingMatchesReference(t *testing.T) {
	selS := sorts.NewSelectionSort()
	for _, a := range narrowJoins {
		name := "planned"
		if a != nil {
			name = a.Name()
		}
		for _, left := range narrowLefts {
			for _, ch := range narrowChains {
				t.Run(fmt.Sprintf("%s/%s/%s", name, left.name, ch.name), func(t *testing.T) {
					run := func(opts CompileOptions, sort sorts.Algorithm, par, batch int) ([]byte, uint64, []int64) {
						r := newRig(t)
						dim1, dim2, fact := r.loadStar(t, bgDim, bgFact)
						l := left.build(t, r, dim1, dim2)
						plan := ch.apply(l.JoinWith(Table(fact), a), planRecordSize(l)/record.AttrSize).OrderByWith(sort)
						ec := r.ctx(narrowBudget, par)
						ec.BatchSize = batch
						root, ex, err := CompileWith(ec, plan, opts)
						if err != nil {
							t.Fatal(err)
						}
						if j := findJoin(root); !opts.asWritten && !opts.MaterializeEveryStep && j.left.RecordSize() >= planRecordSize(l) {
							t.Fatalf("P=%d batch=%d: the build side of %s is %d bytes wide, as written", par, batch, root.Name(), j.left.RecordSize())
						}
						out := r.create(t, "out", root.RecordSize())
						r.dev.ResetStats()
						if err := RunCtx(context.Background(), ec, root, out); err != nil {
							t.Fatal(err)
						}
						writes := r.dev.Stats().Writes
						if live := ec.LiveTemps(); live != 0 {
							t.Fatalf("%d live temps after the run", live)
						}
						return readBytes(t, out), writes, ex.StageShares
					}
					want, _, _ := run(CompileOptions{MaterializeEveryStep: true}, nil, 1, 0)
					if len(want) == 0 {
						t.Fatal("the reference emitted no rows; the comparison proves nothing")
					}
					for _, par := range []int{1, 4} {
						for _, batch := range []int{1, 1024} {
							if got, _, _ := run(CompileOptions{}, nil, par, batch); !bytes.Equal(got, want) {
								t.Fatalf("P=%d batch=%d: narrowed plan emitted %d bytes that differ from the reference's %d", par, batch, len(got), len(want))
							}
							_, written, shares := run(CompileOptions{asWritten: true}, selS, par, batch)
							got, writes, _ := run(CompileOptions{shares: shares}, selS, par, batch)
							if !bytes.Equal(got, want) {
								t.Fatalf("P=%d batch=%d: narrowed plan under SelS emitted bytes that differ from the reference's", par, batch)
							}
							if writes > written {
								t.Errorf("P=%d batch=%d: narrowed plan wrote %d cachelines, as written %d (shares %v)", par, batch, writes, written, shares)
							}
						}
					}
				})
			}
		}
	}
}

// TestBuildNarrowingKeepsVisibleOrder: a join whose row order is the
// plan's result — at the root, or under a limit, which keeps the rows
// that come first — keeps its build side as written, since a narrower one
// cuts other blocks and partitions and emits its rows in another order.
func TestBuildNarrowingKeepsVisibleOrder(t *testing.T) {
	r := newRig(t)
	dim1, _, fact := r.loadStar(t, bgDim, bgFact)
	join := func() *Plan { return Table(dim1).JoinWith(Table(fact), joins.NewGrace()).Project(0, 12) }
	for name, plan := range map[string]*Plan{
		"root":    join(),
		"limit":   join().Limit(10).OrderBy(),
		"ordered": join().OrderBy(),
	} {
		root, _, err := Compile(r.ctx(bgBudget, 1), plan)
		if err != nil {
			t.Fatal(err)
		}
		narrowed := findJoin(root).left.RecordSize() < record.Size
		if narrowed != (name == "ordered") {
			t.Errorf("%s: build side narrowed %v in %s", name, narrowed, root.Name())
		}
	}
}

// TestFedFoldHoldsPartials: a fed fold at a share of M bytes holds
// ⌊M/PartialSize⌋ groups: with that many it writes no run, with one more
// it evicts.
func TestFedFoldHoldsPartials(t *testing.T) {
	const budget = 16000
	slots := budget / aggregate.PartialSize
	for _, c := range []struct {
		groups int
		path   foldPath
	}{{slots, foldResident}, {slots + 1, foldEvict}} {
		t.Run(fmt.Sprintf("groups%d", c.groups), func(t *testing.T) {
			r := newRig(t)
			counted := countTemps(r.fac)
			ec := NewCtx(counted, budget, 1)
			root, ex, err := Compile(ec, Table(loadGrouped(t, r, "in", 4*c.groups, c.groups)).GroupHint(c.groups).GroupBy(4))
			if err != nil {
				t.Fatal(err)
			}
			if ch := ex.Choices[0]; !ch.Fed || ch.Share != budget {
				t.Fatalf("the group-by is not one fed stage at the whole %d B:\n%s", budget, ex)
			}
			if got := drainCursor(t, ec, root); len(got) != c.groups*record.Size {
				t.Fatalf("%d bytes of groups, want %d groups", len(got), c.groups)
			}
			checkFoldPath(t, c.path, counted)
		})
	}
}
