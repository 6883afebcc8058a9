package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

// The fused filter view walks arbitrarily many base records per call —
// its count pass scans the whole base and a selective predicate makes a
// single iterator Next unbounded — so both loops must poll the run's
// context like any kernel loop (INVARIANTS.md, cancellation polling).

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
	c, ok, err := fuseView(ctx, ec, root)
	if err != nil {
		root.Close() //nolint:errcheck
		t.Fatalf("fuseView: %v", err)
	}
	if !ok {
		root.Close() //nolint:errcheck
		t.Fatal("filter over a table did not fuse")
	}
	v, ok := c.(*chainView)
	if !ok {
		root.Close() //nolint:errcheck
		t.Fatalf("fused collection is %T, want *chainView", c)
	}
	return v, func() { root.Close() } //nolint:errcheck
}

// TestFuseCountPollsCancellation: the eager count scan must stop once
// the context is cancelled instead of reading the base to the end.
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
	if _, _, err := fuseView(ctx, ec, root); !errors.Is(err, context.Canceled) {
		t.Fatalf("fuseView under a cancelled context: err = %v, want context.Canceled", err)
	}
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
					v, ok, err := fuseView(ctx, ec, root)
					if err != nil || !ok {
						t.Fatalf("fuseView: ok=%v err=%v", ok, err)
					}
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
				if _, ok, err := fuseView(ctx, ec, root); err != nil || !ok {
					t.Fatalf("fuseView: ok=%v err=%v", ok, err)
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
