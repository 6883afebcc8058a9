package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

// The fused filter view walks arbitrarily many base records per call —
// its count scans the whole base, and so does the first pass of a
// selection sort that counts it instead, and a selective predicate makes
// a single iterator Next unbounded — so every such loop must poll the
// run's context like any kernel loop (INVARIANTS.md, cancellation
// polling).

// countedView fuses the opened root into a collection and counts it, as
// a consumer that sizes its work by Len does.
func countedView(t *testing.T, ctx context.Context, ec *Ctx, root Operator) storage.Collection {
	t.Helper()
	c, ok := fuseView(ctx, ec, root)
	if !ok {
		t.Fatalf("%s did not fuse", root.Name())
	}
	if err := countInput(c); err != nil {
		t.Fatalf("counting %s: %v", c.Name(), err)
	}
	return c
}

// fuseFilter opens a Filter-over-Table plan and fuses it under ctx.
func fuseFilter(t *testing.T, ctx context.Context, n int, pred Predicate) (*chainView, func()) {
	t.Helper()
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(n, 21, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	ec := r.ctx(int64(n)*record.Size, 1)
	root, _, err := Compile(ec, Table(in).Filter(pred))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Open(context.Background(), ec); err != nil {
		t.Fatal(err)
	}
	v, ok := countedView(t, ctx, ec, root).(*chainView)
	if !ok {
		root.Close() //nolint:errcheck
		t.Fatal("fused collection is not a *chainView")
	}
	return v, func() { root.Close() } //nolint:errcheck
}

// TestFuseCountPollsCancellation: counting a filtering view must stop
// once the context is cancelled instead of reading the base to the end —
// the view's own count, and the first pass of the selection sort that
// counts it in its stead (sorts.SortCounting), which never gets to open
// the stage.
func TestFuseCountPollsCancellation(t *testing.T) {
	r := newRig(t)
	in := r.create(t, "in", record.Size)
	if err := record.Generate(4000, 21, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	ec := r.ctx(4000*record.Size, 1)
	root, _, err := Compile(ec, Table(in).Filter(Predicate{Attr: 1, Op: Gt, Value: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Open(context.Background(), ec); err != nil {
		t.Fatal(err)
	}
	defer root.Close() //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("count", func(t *testing.T) {
		c, ok := fuseView(ctx, ec, root)
		if !ok {
			t.Fatal("filter over a table did not fuse")
		}
		if err := countInput(c); !errors.Is(err, context.Canceled) {
			t.Fatalf("count under a cancelled context: err = %v, want context.Canceled", err)
		}
	})
	t.Run("selection", func(t *testing.T) {
		c, _ := fuseView(ctx, ec, root)
		out := r.create(t, "out", record.Size)
		env := algo.NewEnv(r.fac, 4000*record.Size/10).WithContext(ctx)
		opened := false
		err := sorts.SortCounting(env, c, out, nil, func(int) sorts.Algorithm { opened = true; return sorts.NewSelectionSort() })
		if !errors.Is(err, context.Canceled) || opened {
			t.Fatalf("counting selection under a cancelled context: err = %v, opened = %v; want context.Canceled, unopened", err, opened)
		}
		if out.Len() != 0 {
			t.Fatalf("cancelled counting selection emitted %d records", out.Len())
		}
	})
}

// TestFuseScanPollsCancellation: a fused view's iterator must surface
// cancellation mid-scan even when the predicate never matches (the
// unbounded-Next case).
func TestFuseScanPollsCancellation(t *testing.T) {
	// Predicate matching nothing: one Next call walks the entire base.
	v, done := fuseFilter(t, context.Background(), 4000, Predicate{Attr: 1, Op: Gt, Value: 1 << 60})
	defer done()
	if v.Len() != 0 {
		t.Fatalf("predicate unexpectedly matched %d records", v.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	v.ctx = ctx // re-arm the view with a cancellable context for the scan
	it := v.Scan()
	defer it.Close() //nolint:errcheck
	cancel()
	if _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on a cancelled scan: err = %v, want context.Canceled", err)
	}
}

// TestFuseScanCleanCompletion: polling must not disturb a clean scan.
func TestFuseScanCleanCompletion(t *testing.T) {
	v, done := fuseFilter(t, context.Background(), 1000, Predicate{Attr: 1, Op: Gt, Value: 1})
	defer done()
	it := v.Scan()
	defer it.Close() //nolint:errcheck
	n := 0
	for {
		_, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != v.Len() {
		t.Fatalf("scan yielded %d records, Len reports %d", n, v.Len())
	}
}

// TestFuseViewChunkedReadOnly: the view's iterator reads by chunk (the
// kernels' scan protocol), never hands out more than it was asked for,
// and the view refuses every mutation.
func TestFuseViewChunkedReadOnly(t *testing.T) {
	v, done := fuseFilter(t, context.Background(), 1000, Predicate{Attr: 1, Op: Gt, Value: 1})
	defer done()
	it := v.Scan()
	defer it.Close() //nolint:errcheck
	ci, ok := it.(storage.ChunkIterator)
	if !ok {
		t.Fatalf("view iterator %T is not a storage.ChunkIterator", it)
	}
	n := 0
	for {
		recs, err := ci.NextChunk(5)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 1 || len(recs) > 5 {
			t.Fatalf("NextChunk(5) returned %d records", len(recs))
		}
		n += len(recs)
	}
	if n != v.Len() {
		t.Errorf("chunked scan yielded %d records, Len reports %d", n, v.Len())
	}
	for verb, err := range map[string]error{
		"Append": v.Append(record.New(1)), "Truncate": v.Truncate(), "Destroy": v.Destroy(),
	} {
		if err == nil {
			t.Errorf("%s on a view succeeded", verb)
		}
	}
	if err := v.Close(); err != nil {
		t.Errorf("Close on a view: %v", err)
	}
}

// scanReads drains it — by chunk when chunk > 0, else one Next at a
// time — and returns the device reads the scan issued.
func scanReads(t *testing.T, dev *pmem.Device, it storage.Iterator, chunk int) (recs int, st pmem.Stats) {
	t.Helper()
	defer it.Close() //nolint:errcheck
	before := dev.Stats()
	if chunk > 0 {
		if err := storage.ForEach(it, chunk, func([]byte) error { recs++; return nil }); err != nil {
			t.Fatal(err)
		}
		return recs, dev.Stats().Sub(before)
	}
	for {
		if _, err := it.Next(); err == io.EOF {
			return recs, dev.Stats().Sub(before)
		} else if err != nil {
			t.Fatal(err)
		}
		recs++
	}
}

// TestFuseViewDeviceIdentity: a view moves exactly the blocks a
// record-at-a-time reader of its base would. A full scan issues the
// base's Reads and ReadOps in either scan form; a slice of the view
// scanned to its end stops at the base block holding its last surviving
// record — for a projecting-only chain it also starts at the block
// holding its first. The consumer asks for a block's worth of the
// view's narrow records, several blocks' worth of the base's, so a view
// that forwarded that request would read ahead of what it serves.
func TestFuseViewDeviceIdentity(t *testing.T) {
	const n, lo, hi = 1500, 40, 333
	pred := Predicate{Attr: 1, Op: Ge, Value: 250}
	plans := []struct {
		name  string
		apply func(p *Plan) *Plan
		keep  func(rec []byte) bool
	}{
		{"project", func(p *Plan) *Plan { return p.Project(2, 0) }, func([]byte) bool { return true }},
		{"project-filter-project", func(p *Plan) *Plan { return p.Project(4, 1, 0).Filter(pred).Project(0, 2) },
			func(rec []byte) bool { return record.Attr(rec, 1) >= 250 }},
	}
	for _, backend := range storage.Backends {
		for _, bs := range []int{512, 1024} {
			for _, pc := range plans {
				t.Run(fmt.Sprintf("%s/b%d/%s", backend, bs, pc.name), func(t *testing.T) {
					dev := pmem.MustOpen(pmem.Config{Capacity: rigDevice})
					fac, err := all.New(backend, dev, bs)
					if err != nil {
						t.Fatal(err)
					}
					r := &rig{dev: dev, fac: fac}
					in := r.create(t, "in", record.Size)
					if err := record.Generate(n, 21, in.Append); err != nil {
						t.Fatal(err)
					}
					if err := in.Close(); err != nil {
						t.Fatal(err)
					}
					ec := r.ctx(n*record.Size, 1)
					root, _, err := Compile(ec, pc.apply(Table(in)))
					if err != nil {
						t.Fatal(err)
					}
					ctx := context.Background()
					if _, err := root.Open(ctx, ec); err != nil {
						t.Fatal(err)
					}
					defer root.Close() //nolint:errcheck
					v := countedView(t, ctx, ec, root)
					chunk := storage.ChunkRecords(bs, v.RecordSize())

					_, base := scanReads(t, dev, in.Scan(), 0)
					for _, c := range []int{0, chunk} {
						got, st := scanReads(t, dev, v.Scan(), c)
						if got != v.Len() || st.Reads != base.Reads || st.ReadOps != base.ReadOps {
							t.Errorf("full scan (chunk %d): %d records in %d reads / %d ops, base scan %d / %d",
								c, got, st.Reads, st.ReadOps, base.Reads, base.ReadOps)
						}
					}

					// The base range a record-at-a-time reader of the slice's
					// records walks: from the lo-th survivor (a filtering view
					// re-reads from the start) through the (hi-1)-th.
					all, err := storage.ReadAll(in)
					if err != nil {
						t.Fatal(err)
					}
					first, last, seen := 0, -1, 0
					for j, rec := range all {
						if !pc.keep(rec) {
							continue
						}
						if seen == lo && pc.name == "project" {
							first = j
						}
						if seen++; seen == hi {
							last = j
							break
						}
					}
					if last < 0 {
						t.Fatalf("view keeps fewer than %d rows", hi)
					}
					_, want := scanReads(t, dev, storage.Slice(in, first, last+1).Scan(), 0)
					for _, c := range []int{0, chunk} {
						got, st := scanReads(t, dev, storage.Slice(v, lo, hi).Scan(), c)
						if got != hi-lo || st.Reads != want.Reads || st.ReadOps != want.ReadOps {
							t.Errorf("slice [%d:%d) (chunk %d): %d records in %d reads / %d ops, base records [%d:%d] take %d / %d",
								lo, hi, c, got, st.Reads, st.ReadOps, first, last, want.Reads, want.ReadOps)
						}
					}
				})
			}
		}
	}
}

// TestViewReplacedStreamAllocs: a Stream under a blocking consumer is
// opened and then replaced by a view (inputCollection → fuseView), never
// pulled, so opening it allocates nothing sized to the pull: the bytes
// to open and fuse it are the same at 16 and 4 096 records per pull.
func TestViewReplacedStreamAllocs(t *testing.T) {
	r := newRig(t)
	in := loadRows(t, r)
	ctx := context.Background()
	const opens = 20
	for _, vc := range viewChains {
		perOpen := func(batch int) uint64 {
			ec := r.ctx(8<<10, 1)
			ec.BatchSize = batch
			root, _, err := Compile(ec, vc.apply(Table(in)))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < opens; i++ {
				if _, err := root.Open(ctx, ec); err != nil {
					t.Fatal(err)
				}
				if _, ok := fuseView(ctx, ec, root); !ok {
					t.Fatalf("%s did not fuse", root.Name())
				}
				if err := root.Close(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / opens
		}
		// A vector sized to the pull adds ≥ 4 080 × 24 B; 256 B is noise.
		small, large := perOpen(16), perOpen(4096)
		if large > small+256 {
			t.Errorf("%s: opening and fusing a stream allocates %d B at 4096 records per pull, %d B at 16", vc.name, large, small)
		}
		t.Logf("%s: %d B per open at 16 records per pull, %d B at 4096", vc.name, small, large)
	}
}

// findSort returns the topmost Sort of a tree.
func findSort(op Operator) *Sort {
	if s, ok := op.(*Sort); ok {
		return s
	}
	for _, c := range op.Children() {
		if s := findSort(c); s != nil {
			return s
		}
	}
	return nil
}

// TestFuseViewCountedByFirstPass: a SelS stage over a filtering view
// under a limit (scan | filter | orderby | limit, and a SelS group-by
// folding in its passes) counts the view in its first selection pass,
// not in a scan of its own. Kept at Open, the run reads the base once per
// pass plus what the limit reads of the stage's result, and writes that
// result once and the limit's rows. Re-planned away from SelS at Open, it
// moves the cachelines of the same plan with the sort pinned to the
// algorithm the re-plan picked, which counts the view up front: the
// counting pass it abandoned reads what that count reads. Either way the
// output is the materialize-every-step reference's, record-at-a-time and
// batched, and the Explain choice's actual rows are the survivors. At
// P = 4 the planner prices ExMS's parallel run formation below SelS in
// this shape, so SelS runs there pinned.
func TestFuseViewCountedByFirstPass(t *testing.T) {
	const n, limit = 4000, 10
	// Without statistics a range predicate is estimated at half the rows;
	// a1 (the key mod 1001) < 800 keeps about 80 %, < 2000 all. Both
	// compile to SelS at P = 1; at 3 200 rows and 1 200 slots SelS stays
	// (three passes), at 4 000 rows and 800 slots the re-plan leaves it.
	// Keys are unique, so the group-by's groups are the survivors.
	selS := sorts.NewSelectionSort()
	orderBy := func(p *Plan, a sorts.Algorithm) *Plan { return p.OrderByWith(a) }
	groupBy := func(p *Plan, a sorts.Algorithm) *Plan { return p.GroupByWith(4, a) }
	cases := []struct {
		name      string
		keep      uint64
		budget    int64
		stage     func(p *Plan, a sorts.Algorithm) *Plan
		sort      sorts.Algorithm // nil: the planner's
		slot      int             // bytes a pass holds per record: a sorted row or a group's partial
		pars      []int
		replanned bool
	}{
		{"planned", 800, 96000, orderBy, nil, record.Size, []int{1}, false},
		{"pinned", 800, 96000, orderBy, selS, record.Size, []int{1, 4}, false},
		{"grouped", 800, 96000, groupBy, selS, aggregate.PartialSize, []int{1, 4}, false},
		{"replanned", 2000, 64000, orderBy, nil, record.Size, []int{1}, true},
	}
	for _, tc := range cases {
		for _, par := range tc.pars {
			for _, batch := range []int{1, 1024} {
				t.Run(fmt.Sprintf("%s/p%d/b%d", tc.name, par, batch), func(t *testing.T) {
					r := rigOn(t, "blocked", pmem.Config{Capacity: largeRigDevice})
					in := r.create(t, "in", record.Size)
					if err := record.Generate(n, 21, in.Append); err != nil {
						t.Fatal(err)
					}
					if err := in.Close(); err != nil {
						t.Fatal(err)
					}
					staged := func(a sorts.Algorithm) *Plan {
						return tc.stage(Table(in).Filter(Predicate{Attr: 1, Op: Lt, Value: tc.keep}), a)
					}
					spec := runSpec{budget: tc.budget, par: par, batch: batch}

					_, compiled, err := Compile(NewCtx(r.fac, tc.budget, par), staged(tc.sort).Limit(limit))
					if err != nil {
						t.Fatal(err)
					}
					if a := compiled.Choices[0].Algorithm; a != cost.SortSelS {
						t.Fatalf("the stage compiles to %s, want SelS:\n%s", a, compiled)
					}
					res := r.runPlan(t, staged(tc.sort).Limit(limit), spec)
					// The stage's whole result, and its first rows: the reference.
					result := r.runPlan(t, staged(nil), runSpec{budget: tc.budget, par: 1, opts: CompileOptions{MaterializeEveryStep: true}}).out
					recSize := res.root.RecordSize()
					if want := result[:min(len(result), limit*recSize)]; len(want) != limit*recSize || !bytes.Equal(res.out, want) {
						t.Fatalf("emitted %d bytes that differ from the reference's %d", len(res.out), len(want))
					}

					all, err := storage.ReadAll(in)
					if err != nil {
						t.Fatal(err)
					}
					survivors := 0
					for _, rec := range all {
						if record.Attr(rec, 1) < tc.keep {
							survivors++
						}
					}
					c := res.ex.Choices[0]
					if c.ActualRows != survivors || c.Replanned != tc.replanned {
						t.Fatalf("choice %s: act %d, replanned %v; want act %d, replanned %v", c.Algorithm, c.ActualRows, c.Replanned, survivors, tc.replanned)
					}
					if !strings.Contains(res.ex.String(), fmt.Sprintf("act %d,", survivors)) {
						t.Errorf("Explain does not show the survivors as the stage's actual rows:\n%s", res.ex)
					}

					if tc.replanned {
						pinned := r.runPlan(t, staged(findSort(res.root).algo).Limit(limit), spec)
						if res.stats.Reads != pinned.stats.Reads || res.stats.Writes != pinned.stats.Writes {
							t.Errorf("re-planned to %s: %d reads, %d writes; pinned to it: %d, %d",
								c.Algorithm, res.stats.Reads, res.stats.Writes, pinned.stats.Reads, pinned.stats.Writes)
						}
						return
					}
					if c.Algorithm != cost.SortSelS {
						t.Fatalf("kept choice runs %s, want SelS", c.Algorithm)
					}
					// What the limit reads of the stage's result: the same pull
					// over a table holding it.
					tbl := r.create(t, "result", recSize)
					for off := 0; off < len(result); off += recSize {
						if err := tbl.Append(result[off : off+recSize]); err != nil {
							t.Fatal(err)
						}
					}
					if err := tbl.Close(); err != nil {
						t.Fatal(err)
					}
					limitReads := r.runPlan(t, Table(tbl).Limit(limit), spec).stats.Reads
					_, base := scanReads(t, r.dev, in.Scan(), 0)
					slots := int(c.Share) / tc.slot
					passes := (survivors + slots - 1) / slots
					if want := uint64(passes)*base.Reads + limitReads; res.stats.Reads != want {
						t.Errorf("%d reads, want %d passes × %d base lines + the limit's %d = %d: no count scan",
							res.stats.Reads, passes, base.Reads, limitReads, want)
					}
					if want := copyWrites(t, r, result, recSize) + copyWrites(t, r, res.out, recSize); res.stats.Writes != want {
						t.Errorf("%d writes, want the stage's result's and the limit's rows' %d", res.stats.Writes, want)
					}
				})
			}
		}
	}
}
