package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// fillRecs builds n deterministic records keyed start..start+n.
func fillRecs(start, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		rec := make([]byte, record.Size)
		record.Fill(rec, uint64(start+i))
		out[i] = rec
	}
	return out
}

func appendAll(t *testing.T, c interface{ Append([]byte) error }, recs [][]byte) {
	t.Helper()
	for _, r := range recs {
		if err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// openSession pre-appends pre records (leaving a DRAM tail unless the
// byte count is block-aligned) and opens a range-append session.
func openSession(t *testing.T, pre int, counts []int) (storage.Factory, storage.Collection, *storage.RangeAppend) {
	t.Helper()
	f := newFactory(t, "blocked")
	c, err := f.Create("ra", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, c, fillRecs(0, pre))
	ra, ok := storage.AsRangeAppender(c)
	if !ok {
		t.Fatal("blocked collection does not expose RangeAppender")
	}
	session, err := ra.AppendRanges(counts)
	if err != nil {
		t.Fatal(err)
	}
	return f, c, session
}

// runWriters drives each writer's range concurrently and returns the
// first error.
func runWriters(session *storage.RangeAppend, counts []int, recs [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, len(counts))
	start := 0
	for i, n := range counts {
		lo := start
		start += n
		wg.Add(1)
		go func(i, lo, n int) {
			defer wg.Done()
			w := session.Writer(i)
			for _, r := range recs[lo : lo+n] {
				if err := w.Append(r); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, lo, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestRangeAppendMatchesSerial checks the core identity: a committed
// range-append session leaves the collection byte-for-byte equal to the
// same records appended serially — including a pre-existing DRAM tail
// folded into the first block — with *exactly* the same cacheline write
// count on the device.
func TestRangeAppendMatchesSerial(t *testing.T) {
	// 7 pre-records = 560 bytes: a partial tail below one 1024-byte block;
	// 64 = 5120 bytes: five full blocks and no DRAM tail.
	const n = 500
	for _, tc := range []struct {
		pre    int
		counts []int
		label  string
	}{
		{7, []int{500}, ""},
		{7, []int{180, 200, 120}, ""},
		{7, []int{0, 3, 0, 497, 0}, ""}, // empty and tiny ranges interleaved
		{7, []int{125, 125, 125, 125}, ""},
		{7, []int{180, 3, 317}, ""},       // a sub-block range between two writers
		{7, []int{180, 5, 315}, ""},       // … that ends on a block boundary
		{7, []int{2, 2, 2, 494}, ""},      // several ranges inside the tail's block
		{64, []int{500}, "/aligned-tail"}, // block-aligned pre-existing records
		{64, []int{125, 125, 125, 125}, "/aligned-tail"},
		{64, []int{180, 3, 317}, "/aligned-tail"},
	} {
		pre, counts := tc.pre, tc.counts
		t.Run(fmt.Sprintf("%v", counts)+tc.label, func(t *testing.T) {
			recs := fillRecs(1000, n)

			serialF := newFactory(t, "blocked")
			serial, err := serialF.Create("serial", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, serial, fillRecs(0, pre))
			serialF.Device().ResetStats()
			appendAll(t, serial, recs)
			serialWrites := serialF.Device().Stats().Writes

			f, c, session := openSession(t, pre, counts)
			f.Device().ResetStats()
			if err := runWriters(session, counts, recs); err != nil {
				t.Fatal(err)
			}
			if err := session.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := f.Device().Stats().Writes; got != serialWrites {
				t.Errorf("session wrote %d cachelines, serial appends %d", got, serialWrites)
			}
			if c.Len() != pre+n {
				t.Fatalf("Len = %d, want %d", c.Len(), pre+n)
			}
			want, err := storage.ReadAll(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := storage.ReadAll(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("record %d differs after range append", i)
				}
			}
			// The collection must remain appendable past the session.
			if err := c.Append(want[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRangeAppendRollback checks a rolled-back session leaves no trace:
// length, contents and future appends behave as if it never opened.
func TestRangeAppendRollback(t *testing.T) {
	const pre = 40
	_, c, session := openSession(t, pre, []int{30, 30})
	appendAll(t, session.Writer(0), fillRecs(500, 10)) // partial write, then abandon
	if err := session.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := session.Rollback(); err != nil { // idempotent
		t.Fatal(err)
	}
	if c.Len() != pre {
		t.Fatalf("Len = %d after rollback, want %d", c.Len(), pre)
	}
	appendAll(t, c, fillRecs(2000, 60))
	recs, err := storage.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != pre+60 {
		t.Fatalf("got %d records, want %d", len(recs), pre+60)
	}
	for i, r := range recs[:pre] {
		if record.Key(r) != uint64(i) {
			t.Fatalf("pre-record %d has key %d", i, record.Key(r))
		}
	}
}

// TestRangeAppendUnsupportedBackends: the capability check probes true
// on blocked alone, the one backend that reserves blocks; blocked serves
// sessions.
func TestRangeAppendUnsupportedBackends(t *testing.T) {
	forEachBackend(t, func(t *testing.T, f storage.Factory) {
		c, err := f.Create("cap", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		ra, ok := storage.AsRangeAppender(c)
		if ok != (f.Name() == "blocked") {
			t.Fatalf("backend %q: AsRangeAppender ok = %v, want true on blocked only", f.Name(), ok)
		}
		if ok != f.ReservesBlocks() {
			t.Fatalf("backend %q: AsRangeAppender ok = %v, factory ReservesBlocks = %v", f.Name(), ok, f.ReservesBlocks())
		}
		if !ok {
			return
		}
		session, err := ra.AppendRanges([]int{1})
		if err != nil {
			t.Fatalf("blocked backend refused a session: %v", err)
		}
		if err := session.Rollback(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRangeWriterShortCount: a writer that appended fewer records than
// its range declares makes Commit fail, and the session still rolls
// back cleanly.
func TestRangeWriterShortCount(t *testing.T) {
	_, c, session := openSession(t, 0, []int{20, 20})
	appendAll(t, session.Writer(0), fillRecs(0, 20))
	appendAll(t, session.Writer(1), fillRecs(20, 5))
	if err := session.Commit(); err == nil {
		t.Fatal("commit of a short session succeeded")
	}
	if err := session.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after rollback", c.Len())
	}
}
