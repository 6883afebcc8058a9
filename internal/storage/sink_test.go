package storage_test

import (
	"errors"
	"testing"

	"wlpm/internal/storage"
)

// TestSinkForwardsAppendsInOrder: every Append reaches put, in order,
// wrong-sized records are rejected before put sees them, Close runs
// flush every time, and put's error is the Append's error.
func TestSinkForwardsAppendsInOrder(t *testing.T) {
	var got []byte
	flushes := 0
	boom := errors.New("boom")
	s := storage.NewSink("s", 2, func(rec []byte) error {
		if rec[0] == 9 {
			return boom
		}
		got = append(got, rec...)
		return nil
	}, func() error { flushes++; return nil })

	for _, rec := range [][]byte{{1, 2}, {3, 4}} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append([]byte{1, 2, 3}); err == nil {
		t.Error("3-byte record accepted by a 2-byte sink")
	}
	if err := s.Append([]byte{9, 9}); !errors.Is(err, boom) {
		t.Errorf("Append = %v, want put's error", err)
	}
	if string(got) != "\x01\x02\x03\x04" {
		t.Errorf("put saw %v", got)
	}
	if s.RecordSize() != 2 || s.Name() != "s" {
		t.Errorf("sink reports %q/%d", s.Name(), s.RecordSize())
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if flushes != 2 {
		t.Errorf("flush ran %d times over 2 Closes", flushes)
	}
}

// TestSinkIsWriteOnly: a sink keeps nothing, so every read-side or
// destructive method is an error — never a panic — and no capability
// probe can reach around put: it is neither a range appender nor a
// decorator that unwraps to one.
func TestSinkIsWriteOnly(t *testing.T) {
	f := newFactory(t, "blocked")
	dst, err := f.Create("dst", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := storage.AsRangeAppender(dst); !ok {
		t.Fatal("blocked collection is not a range appender; the probe below proves nothing")
	}
	var s storage.Collection = storage.NewSink("s", 8, dst.Append, dst.Close)
	if err := s.Append(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, it := range []storage.Iterator{s.Scan(), s.ScanFrom(1)} {
		if rec, err := it.Next(); err == nil {
			t.Errorf("scan of a sink returned record %v", rec)
		}
		if err := it.Close(); err != nil {
			t.Error(err)
		}
	}
	if err := s.Truncate(); err == nil {
		t.Error("Truncate of a sink succeeded")
	}
	if err := s.Destroy(); err == nil {
		t.Error("Destroy of a sink succeeded")
	}
	if _, ok := storage.AsRangeAppender(s); ok {
		t.Error("a sink over a range-appending collection probes as a range appender")
	}
	if _, ok := s.(storage.Unwrapper); ok {
		t.Error("a sink unwraps to the collection behind it")
	}
	if s.Len() != 1 || dst.Len() != 1 {
		t.Errorf("sink accepted %d records, destination holds %d, want 1 and 1", s.Len(), dst.Len())
	}
}
