package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// The fed home of a result (exec.go) is held to three contracts, each
// against something other than itself: the bytes of the
// materialize-every-step reference and the counters of the same plan
// with its consumers pinned (TestFeedIdentityGrid), the device's own
// counters for the placement the planner did not choose
// (TestFeedIsPriced), and — in stored_test.go and cancel_test.go, beside
// the stored home's — the no-leak guarantees when a run temp, the plan
// output or the context fails under it.

const (
	feedDim  = 200
	feedFact = 3000
)

var starCols = []int{0, 1, 12, 13, 14, 5, 16, 7, 18, 9}

// byAgg leads a group-by's result with its first aggregate at full width:
// an order-by over it keeps its stage (the result is in key order, not in
// this one) and is priced as it would be over the result itself.
var byAgg = []int{1, 0, 2, 3, 4, 5, 6, 7, 8, 9}

// sortWith is OrderBy, pinned to ExMS when pin is set.
func sortWith(p *Plan, pin bool) *Plan {
	if pin {
		return p.OrderByWith(sorts.NewExternalMergeSort())
	}
	return p.OrderBy()
}

// groupWith is GroupBy(attr), pinned to ExMS when pin is set.
func groupWith(p *Plan, attr int, pin bool) *Plan {
	if pin {
		return p.GroupByWith(attr, sorts.NewExternalMergeSort())
	}
	return p.GroupBy(attr)
}

// feedShapes are the plan shapes whose sort-based consumers take their
// input pushed: each a planner-owned order-by or group-by over a result
// that would otherwise be stored only for it to read. Producers are
// pinned where the planner's pick varies with P (NLJ writes nothing but
// its output; HybS forms its runs in one serial pass, where ExMS's
// chunked run formation leaves a partial tail block per worker) and
// budgets leave every sort one merge pass
// (how an intermediate pass groups its runs follows P, and the partial
// tail blocks with it) and the allocator splits them the same way at
// every P, so that the counters compare across the grid;
// pin fixes the consumers to ExMS over a stored input instead. fed is
// how many stages the unpinned plan feeds.
var feedShapes = []struct {
	name   string
	budget int64
	fed    int
	build  func(t *testing.T, r *rig, pin bool) *Plan
}{
	{"join-groupby", feedFact * record.Size / 4, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		// Two five-attribute views join to one 80-byte record: a group-by
		// directly over the join, no chain between them.
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return groupWith(Table(dim1).Project(0, 1, 2, 3, 4).JoinWith(Table(fact).Project(0, 1, 2, 3, 4), joins.NewNestedLoops()), 3, pin)
	}},
	{"join-project-groupby", feedFact * record.Size / 4, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return groupWith(Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...), 3, pin)
	}},
	{"join-orderby", feedFact * record.Size / 2, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return sortWith(Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()), pin)
	}},
	// An order-by over a group-by's result, ordered by an aggregate, keeps
	// its stage and takes the group-by's final merge into its intake.
	{"groupby-orderby", feedFact * record.Size / 6, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		return sortWith(Table(loadGrouped(t, r, "in", feedFact, 500)).GroupByWith(4, sorts.NewHybridSort(0.5)).Project(byAgg...), pin)
	}},
	// Ordered by the group key it compiles to no stage (elides): the
	// group-by's result is in that order already, so the shape feeds
	// nothing, and the next two elided shapes one stage.
	{"groupby-elided-orderby", feedFact * record.Size / 6, 0, func(t *testing.T, r *rig, pin bool) *Plan {
		return sortWith(Table(loadGrouped(t, r, "in", feedFact, 500)).GroupByWith(4, sorts.NewHybridSort(0.5)), pin)
	}},
	{"join-groupby-orderby", feedFact * record.Size / 2, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return sortWith(groupWith(Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...), 3, pin), pin)
	}},
	// A group-by over a base table pushes the table into its fold, whose
	// 300 groups fit memory: no run anywhere. Ordered by an aggregate they
	// go on into the order-by's intake (two fed stages); by the key the
	// order-by elides.
	{"fold-resident-orderby", 1 << 20, 2, func(t *testing.T, r *rig, pin bool) *Plan {
		return sortWith(Table(loadGrouped(t, r, "in", feedFact, 300)).GroupHint(300).GroupBy(4).Project(byAgg...), pin)
	}},
	{"fold-resident-elided-orderby", 1 << 20, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		return sortWith(Table(loadGrouped(t, r, "in", feedFact, 300)).GroupHint(300).GroupBy(4), pin)
	}},
	// The join feeds the group-by, whose final merge goes into the
	// order-by's intake: two fed stages.
	{"join-groupby-byagg-orderby", feedFact * record.Size / 2, 2, func(t *testing.T, r *rig, pin bool) *Plan {
		dim1, _, fact := r.loadStar(t, feedDim, feedFact)
		return sortWith(groupWith(Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...), 3, pin).Project(1, 0, 2), pin)
	}},
	{"limit-orderby", feedFact * record.Size / 4, 1, func(t *testing.T, r *rig, pin bool) *Plan {
		return sortWith(Table(loadGrouped(t, r, "in", feedFact, 500)).Limit(feedFact-100), pin)
	}},
}

// fedChoices counts the Explain choices that ran fed.
func fedChoices(ex *Explain) int {
	n := 0
	for _, c := range ex.Choices {
		if c.Fed {
			n++
		}
	}
	return n
}

// TestFeedIdentityGrid: on every backend, at every parallelism and batch
// size, a fed plan emits the materialize-every-step reference's bytes,
// writes the same cachelines whatever P and the batch size — strictly
// fewer than the same plan with its consumers pinned to ExMS over stored
// inputs — and never creates the temp it replaces.
func TestFeedIdentityGrid(t *testing.T) {
	for _, backend := range storage.Backends {
		for _, sh := range feedShapes {
			t.Run(backend+"/"+sh.name, func(t *testing.T) {
				// Each run goes to a fresh device on the backend.
				run := func(pin bool, s runSpec) planRun {
					r := rigOn(t, backend, pmem.Config{Capacity: largeRigDevice})
					s.budget = sh.budget
					return r.runPlan(t, sh.build(t, r, pin), s)
				}
				want := run(false, runSpec{par: 1, opts: CompileOptions{MaterializeEveryStep: true}}).out
				if len(want) == 0 {
					t.Fatal("reference run produced no rows; the comparison proves nothing")
				}
				pinned := run(true, runSpec{par: 1})
				if pinned.temps.N(inputTemps...) == 0 {
					t.Fatal("the pinned plan stored no input either: the shape is not one a feed saves anything on")
				}
				pinnedWrites := pinned.stats.Writes
				var wantWrites uint64
				for _, par := range []int{1, 2, 4} {
					for _, batch := range []int{1, 7, 1024} {
						res := run(false, runSpec{par: par, batch: batch})
						got, writes, ex := res.out, res.stats.Writes, res.ex
						if n := fedChoices(ex); n != sh.fed || strings.Count(ex.Root, "⇐ feed") != sh.fed {
							t.Fatalf("P=%d batch=%d: %d fed stage(s), want %d:\n%s", par, batch, n, sh.fed, ex)
						}
						if n := res.temps.N(inputTemps...); n != 0 {
							t.Errorf("P=%d batch=%d: %d joined/grouped/pipe temp(s) created under a fed consumer", par, batch, n)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("P=%d batch=%d: output differs from the materialize-every-step reference (%d vs %d bytes)", par, batch, len(got), len(want))
						}
						if wantWrites == 0 {
							wantWrites = writes
						}
						if writes != wantWrites {
							t.Errorf("P=%d batch=%d: %d cacheline writes, P=1 batch=1 wrote %d", par, batch, writes, wantWrites)
						}
					}
				}
				if wantWrites >= pinnedWrites {
					t.Errorf("fed plan wrote %d cachelines, the same plan pinned to ExMS over stored inputs %d: want strictly fewer", wantWrites, pinnedWrites)
				}
			})
		}
	}
}

// TestFeedIsPriced: fed or stored is a price, not a rule. A planner-owned
// order-by over a drained stream is run in the placement its stage chose
// and then forced into the other; by the device's own counters (reads +
// λ·writes) the chosen one must be the cheaper — at shares where one
// merge pass suffices (fed: no pipe, no read-back) and at the two-buffer
// floor, where every extra merge pass re-reads and re-writes the input
// and stored + a selection-based sort wins. The limit makes the estimate
// exact, so the decision is judged on the model's accuracy alone. At
// P = 4 the other placement is what the planner would run there (ExMS:
// the write-serial sorts lose their ground), so the counters judge fed
// against that.
func TestFeedIsPriced(t *testing.T) {
	type outcome struct {
		fed  bool
		algo string
		cost float64
	}
	worst := 0.0 // the largest chosen/other cost ratio across the grid
	for _, lambda := range []float64{2, 15, 50} {
		r := rigOn(t, "blocked", pmem.Config{Capacity: rigDevice, ReadLatency: 10 * time.Nanosecond, WriteLatency: time.Duration(10*lambda) * time.Nanosecond})
		dev, fac := r.dev, r.fac
		in := r.create(t, "in", record.Size)
		if err := record.Generate(4000, 17, in.Append); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		bs := int64(fac.BlockSize())
		var sawFed, sawStored, sawSelS bool
		for _, rows := range []int{600, 3900} {
			for _, share := range []int64{2 * bs, 3 * bs, 16 * bs, int64(rows) * record.Size / 4} {
				for _, par := range []int{1, 4} {
					run := func(force *bool) outcome {
						counted := testkit.CountTemps(fac)
						ec := NewCtx(counted, share, par)
						root, ex, err := Compile(ec, Table(in).Limit(rows).OrderBy())
						if err != nil {
							t.Fatal(err)
						}
						st := root.(*Sort).st
						if !st.feedable {
							t.Fatal("an order-by over a limit is not feedable")
						}
						if force != nil {
							// The placement the planner did not choose: decided
							// for it, as a stage that already opened would have.
							st.feedable, st.fed, st.opened = *force, *force, *force
						}
						out := r.create(t, fmt.Sprintf("out.%d.%d.%d.%v", rows, share, par, force != nil), record.Size)
						dev.ResetStats()
						if err := RunCtx(context.Background(), ec, root, out); err != nil {
							t.Fatal(err)
						}
						s := dev.Stats()
						if out.Len() != rows {
							t.Fatalf("%d rows sorted, want %d", out.Len(), rows)
						}
						if err := out.Destroy(); err != nil {
							t.Fatal(err)
						}
						return outcome{fed: counted.N(inputTemps...) == 0, algo: ex.Choices[0].Algorithm, cost: float64(s.Reads) + lambda*float64(s.Writes)}
					}
					chosen := run(nil)
					flip := !chosen.fed
					other := run(&flip)
					if other.fed == chosen.fed {
						t.Fatalf("forcing the other placement ran fed=%v again", other.fed)
					}
					sawFed, sawStored = sawFed || chosen.fed, sawStored || !chosen.fed
					sawSelS = sawSelS || (!chosen.fed && chosen.algo == "SelS")
					// Regret, not equality: where the two placements cross
					// (two or three buffers of share) they measure within
					// ~12 % of each other, and the model, whose merge passes
					// count the kernels' fan-in, still falls either side at
					// λ = 2; away from the crossing the wrong placement costs
					// 30–100 %.
					worst = math.Max(worst, chosen.cost/other.cost)
					if chosen.cost > 1.121*other.cost {
						t.Errorf("λ=%.0f rows=%d share=%d P=%d: chose fed=%v (%s) at measured cost %.0f, the other placement (%s) measures %.0f",
							lambda, rows, share, par, chosen.fed, chosen.algo, chosen.cost, other.algo, other.cost)
					}
				}
			}
		}
		if !sawFed || (lambda > 2 && !sawStored) || (lambda == 50 && !sawSelS) {
			t.Errorf("λ=%.0f: grid chose fed=%v stored=%v stored+SelS=%v; it must reach both placements, and selection sort at the floor once writes cost 50 reads",
				lambda, sawFed, sawStored, sawSelS)
		}
	}
	t.Logf("worst regret: the chosen placement measures %.4f× the other", worst)
}

// TestStoredOptionKeepsThePlanPrice: marking a shape feedable moves the
// temp's write from the producer's price to the consumer's and changes
// nothing else — with the consumer held to its stored option the two
// stages sum to what they did before, so the only way a feedable plan's
// price moves is down, by the fed option winning.
func TestStoredOptionKeepsThePlanPrice(t *testing.T) {
	for _, lambda := range plannerGrid.lambdas {
		for _, m := range []float64{2, 3, 34, 200} {
			const tb, v, out = 782.0, 7813.0, 6905.0
			for _, consumer := range []string{"OrderBy", "GroupBy"} {
				join, sort := freeStage("Join", lambda), freeStage(consumer, lambda)
				join.outBuf, sort.outBuf = out, tb
				before := join.plan(tb, v, m).cost + sort.plan(out, 0, m).cost

				join.handed, sort.feedable = true, true
				free := join.plan(tb, v, m).cost + sort.plan(out, 0, m).cost
				sort.opened = true // the input has its home, a temp: stored is the only option left
				stored := join.plan(tb, v, m).cost + sort.plan(out, 0, m).cost
				if math.Abs(stored-before) > 1e-9*before {
					t.Errorf("λ=%.1f m=%.0f %s: handed join + stored consumer priced %.9g, %.9g before the shape was feedable", lambda, m, consumer, stored, before)
				}
				if free > before*(1+1e-9) {
					t.Errorf("λ=%.1f m=%.0f %s: feedable pair priced %.9g, above the %.9g it cost unfeedable", lambda, m, consumer, free, before)
				}
			}
		}
	}
}

// TestFedCursorEndsInItsReader: a fed stage's result is its reader's
// pull, never a temp. Under a cursor the star's group-by, fed by the join
// and evicting, serves the final merge of its runs as the cursor pulls:
// closed one row in, the cursor leaves no run behind; under a limit it
// reads strictly fewer cachelines than a full drain, writes the same
// runs, and returns the materialize-every-step reference's first rows.
// The split is forced: the allocator's own (the even one) holds all 200
// groups in the group-by's share, and a fold that never evicts writes no
// run to pull.
func TestFedCursorEndsInItsReader(t *testing.T) {
	const limit = 10
	evicting := CompileOptions{shares: []int64{feedFact*record.Size/8 - 5272, 5272}}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			r := newRig(t)
			dim1, _, fact := r.loadStar(t, feedDim, feedFact)
			star := Table(dim1).JoinWith(Table(fact), joins.NewNestedLoops()).Project(starCols...).GroupHint(feedDim / 10).GroupBy(3)
			// open compiles p over a temp counter and opens it under a cursor.
			open := func(p *Plan) (*Ctx, Operator, *testkit.Temps) {
				counted := testkit.CountTemps(r.fac)
				ec := NewCtx(counted, feedFact*record.Size/8, par)
				root, ex, err := CompileWith(ec, p, evicting)
				if err != nil {
					t.Fatal(err)
				}
				if fedChoices(ex) != 1 {
					t.Fatalf("%d fed stage(s), want the group-by:\n%s", fedChoices(ex), ex)
				}
				return ec, root, counted
			}
			// pull drains p through a cursor, returning its bytes and device
			// counters.
			pull := func(p *Plan) ([]byte, pmem.Stats) {
				ec, root, counted := open(p)
				r.dev.ResetStats()
				got := drainCursor(t, ec, root)
				st := r.dev.Stats()
				if counted.N("run") == 0 || counted.N(inputTemps...) != 0 {
					t.Fatalf("temps %v: want the fold's runs and no result or input temp", counted)
				}
				if live := ec.LiveTemps(); live != 0 {
					t.Fatalf("%d live temps after the cursor closed", live)
				}
				return got, st
			}

			ref, _, err := CompileWith(r.ctx(feedFact*record.Size/8, 1), star.Limit(limit), CompileOptions{MaterializeEveryStep: true})
			if err != nil {
				t.Fatal(err)
			}
			out := r.create(t, fmt.Sprintf("ref.%d", par), ref.RecordSize())
			if err := RunCtx(context.Background(), r.ctx(feedFact*record.Size/8, 1), ref, out); err != nil {
				t.Fatal(err)
			}
			want := readBytes(t, out)
			if len(want) != limit*ref.RecordSize() {
				t.Fatalf("reference returned %d bytes, want %d rows", len(want), limit)
			}

			all, full := pull(star)
			got, limited := pull(star.Limit(limit))
			if !bytes.Equal(got, want) || !bytes.HasPrefix(all, want) {
				t.Fatalf("the cursor's first %d rows differ from the materialize-every-step reference", limit)
			}
			if limited.Reads >= full.Reads || limited.Writes != full.Writes {
				t.Errorf("limit(%d) read %d and wrote %d cachelines, a full drain %d and %d: want fewer reads, the same writes",
					limit, limited.Reads, limited.Writes, full.Reads, full.Writes)
			}
			t.Logf("limit(%d): %d reads, a full drain of %d rows %d; %d writes", limit, limited.Reads, len(all)/ref.RecordSize(), full.Reads, full.Writes)

			ctx := context.Background()
			ec, root, _ := open(star)
			if err := ec.Bind(ctx); err != nil {
				t.Fatal(err)
			}
			it, err := root.Open(ctx, ec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := storage.NewCursor(it, ec.PullSize()).Next(); err != nil {
				t.Fatal(err)
			}
			if ec.LiveTemps() == 0 {
				t.Fatal("no run is live under the pull: nothing to sweep")
			}
			if err := root.Close(); err != nil {
				t.Fatal(err)
			}
			if live := ec.LiveTemps(); live != 0 {
				t.Fatalf("closing the cursor one row in left %d live temps", live)
			}
		})
	}
}
