package storage_test

import (
	"io"
	"testing"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

func sliceFixture(t *testing.T) storage.Collection {
	t.Helper()
	f := newFactory(t, "blocked")
	c, err := f.Create("base", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Append(record.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func keysOf(t *testing.T, it storage.Iterator) []uint64 {
	t.Helper()
	defer it.Close()
	var keys []uint64
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, record.Key(rec))
	}
}

func TestSliceBounds(t *testing.T) {
	c := sliceFixture(t)
	v := storage.Slice(c, 10, 20)
	if v.Len() != 10 {
		t.Fatalf("Len = %d, want 10", v.Len())
	}
	keys := keysOf(t, v.Scan())
	if len(keys) != 10 || keys[0] != 10 || keys[9] != 19 {
		t.Fatalf("slice keys %v", keys)
	}
}

func TestSliceClamping(t *testing.T) {
	c := sliceFixture(t)
	if v := storage.Slice(c, -5, 200); v.Len() != 100 {
		t.Errorf("clamped slice Len = %d, want 100", v.Len())
	}
	if v := storage.Slice(c, 50, 10); v.Len() != 0 {
		t.Errorf("inverted slice Len = %d, want 0", v.Len())
	}
	empty := storage.Slice(c, 30, 30)
	if keys := keysOf(t, empty.Scan()); len(keys) != 0 {
		t.Errorf("empty slice yielded %v", keys)
	}
}

func TestSliceScanFrom(t *testing.T) {
	c := sliceFixture(t)
	v := storage.Slice(c, 10, 90)
	keys := keysOf(t, v.ScanFrom(5))
	if len(keys) != 75 || keys[0] != 15 {
		t.Fatalf("ScanFrom(5): %d keys, first %d", len(keys), keys[0])
	}
	if keys := keysOf(t, v.ScanFrom(1000)); len(keys) != 0 {
		t.Errorf("ScanFrom past end yielded %v", keys)
	}
}

func TestSliceReadOnly(t *testing.T) {
	c := sliceFixture(t)
	v := storage.Slice(c, 0, 10)
	if err := v.Append(record.New(1)); err == nil {
		t.Error("Append on view succeeded")
	}
	if err := v.Truncate(); err == nil {
		t.Error("Truncate on view succeeded")
	}
	if err := v.Destroy(); err == nil {
		t.Error("Destroy on view succeeded")
	}
	if err := v.Close(); err != nil {
		t.Errorf("Close on view: %v", err)
	}
	if v.RecordSize() != record.Size {
		t.Errorf("RecordSize = %d", v.RecordSize())
	}
	if v.Name() == "" {
		t.Error("view has no name")
	}
}

// A suffix view must not read the skipped prefix from the device.
func TestSliceSkipsPrefixReads(t *testing.T) {
	f := newFactory(t, "blocked")
	c, err := f.Create("base", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := c.Append(record.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	dev := f.Device()

	dev.ResetStats()
	keysOf(t, c.Scan())
	full := dev.Stats().Reads

	dev.ResetStats()
	keysOf(t, storage.Slice(c, 9000, 10000).Scan())
	suffix := dev.Stats().Reads

	if suffix > full/5 {
		t.Errorf("10%% suffix read %d lines vs %d for full scan — prefix not skipped", suffix, full)
	}

	// The chunked scan of the same suffix skips the same prefix: it reads
	// exactly what the record-at-a-time scan read.
	dev.ResetStats()
	chunkKeysOf(t, storage.Slice(c, 9000, 10000).Scan(), storage.ChunkRecords(f.BlockSize(), record.Size))
	if chunked := dev.Stats().Reads; chunked != suffix {
		t.Errorf("chunked suffix scan read %d lines, record scan %d", chunked, suffix)
	}
}

// chunkKeysOf drains it through NextChunk(max), failing on a chunk that
// is empty or larger than asked for.
func chunkKeysOf(t *testing.T, it storage.Iterator, max int) []uint64 {
	t.Helper()
	defer it.Close()
	ci, ok := it.(storage.ChunkIterator)
	if !ok {
		t.Fatalf("iterator %T has no NextChunk", it)
	}
	var keys []uint64
	for {
		recs, err := ci.NextChunk(max)
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || len(recs) > max {
			t.Fatalf("NextChunk(%d) returned %d records", max, len(recs))
		}
		for _, rec := range recs {
			keys = append(keys, record.Key(rec))
		}
	}
}

// TestSliceChunkedScan: a sliced view forwards NextChunk clamped to its
// range. On every backend, for ranges that start and end mid-block, the
// chunked scan returns exactly records lo…hi−1 — never one past hi —
// and issues the same device reads, in the same number of operations,
// as the Next scan: chunking changes how DRAM is interpreted, never
// which blocks are fetched.
func TestSliceChunkedScan(t *testing.T) {
	const n = 1000 // 80 B records, 1 KiB blocks: 12.8 records per block
	forEachBackend(t, func(t *testing.T, f storage.Factory) {
		c, err := f.Create("base", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.Append(record.New(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		dev := f.Device()
		block := storage.ChunkRecords(f.BlockSize(), record.Size)
		for _, r := range [][2]int{{0, n}, {5, 6}, {7, 700}, {13, 26}, {300, 333}, {990, n}, {40, 40}} {
			lo, hi := r[0], r[1]
			dev.ResetStats()
			want := keysOf(t, storage.Slice(c, lo, hi).Scan())
			byRecord := dev.Stats()
			if len(want) != hi-lo {
				t.Fatalf("[%d,%d): Next scan returned %d records", lo, hi, len(want))
			}
			for _, max := range []int{1, block, 5 * block} {
				dev.ResetStats()
				got := chunkKeysOf(t, storage.Slice(c, lo, hi).Scan(), max)
				byChunk := dev.Stats()
				if len(got) != len(want) {
					t.Fatalf("[%d,%d) max %d: chunked scan returned %d records, want %d", lo, hi, max, len(got), len(want))
				}
				for i, k := range got {
					if k != uint64(lo+i) {
						t.Fatalf("[%d,%d) max %d: record %d has key %d", lo, hi, max, i, k)
					}
				}
				if byChunk.Reads != byRecord.Reads || byChunk.ReadOps != byRecord.ReadOps {
					t.Errorf("[%d,%d) max %d: chunked scan read %d lines in %d ops, Next scan %d in %d",
						lo, hi, max, byChunk.Reads, byChunk.ReadOps, byRecord.Reads, byRecord.ReadOps)
				}
			}
		}
	})
}
