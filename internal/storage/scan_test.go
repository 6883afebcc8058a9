package storage_test

import (
	"fmt"
	"sync"
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
)

// The scan micro-benchmark's input: 60 k 80-byte records on blocked
// memory, read 12 records (one block's worth) per chunk.
const (
	scanRecords = 60_000
	scanChunk   = 12
)

func scanInput(t testing.TB) storage.Collection {
	t.Helper()
	f := blocked.New(pmem.MustOpen(pmem.Config{Capacity: 16 << 20}), 0)
	c, err := f.Create("scan", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.Generate(scanRecords, 1, c.Append); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// scanKeys reads all of c through storage.ForEach — at P = 2 as two
// workers over the halves of one Slice each — and returns the sum of
// its keys.
func scanKeys(t testing.TB, c storage.Collection, p int) uint64 {
	sums := make([]uint64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := storage.Slice(c, w*c.Len()/p, (w+1)*c.Len()/p)
			it := part.Scan()
			defer it.Close()
			errs[w] = storage.ForEach(it, scanChunk, func(rec []byte) error {
				sums[w] += record.Key(rec)
				return nil
			})
		}(w)
	}
	wg.Wait()
	var sum uint64
	for w := range sums {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		sum += sums[w]
	}
	return sum
}

// TestScanBlockedAllocs: a scan of blocked memory allocates per scan —
// its iterator, the lengths of its block reads, a stitch slot — never
// per record or per block, at P = 1 and P = 2.
func TestScanBlockedAllocs(t *testing.T) {
	c := scanInput(t)
	want := scanKeys(t, c, 1)
	for _, p := range []int{1, 2} {
		allocs := testing.AllocsPerRun(3, func() {
			if got := scanKeys(t, c, p); got != want {
				t.Fatalf("P=%d: key sum %d, want %d", p, got, want)
			}
		})
		if perRec := allocs / scanRecords; perRec >= 0.001 {
			t.Errorf("P=%d: %.0f allocations per %d-record scan: %.4f per record, want 0", p, allocs, scanRecords, perRec)
		}
		t.Logf("P=%d: %.0f allocations per scan", p, allocs)
	}
}

func BenchmarkScanBlocked(b *testing.B) {
	c := scanInput(b)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(scanRecords * record.Size)
			for i := 0; i < b.N; i++ {
				scanKeys(b, c, p)
			}
		})
	}
}

// TestChunkReadsNoBlockEarly: a record-at-a-time reader of blocked
// memory that has taken k records has read exactly the blocks those k
// records lie in — one read each — however the records straddle them:
// stitching a record reads its second block no sooner than the record
// is asked for.
func TestChunkReadsNoBlockEarly(t *testing.T) {
	for _, size := range []int{7, 80, 512, 1000, 1500} {
		f := blocked.New(pmem.MustOpen(pmem.Config{Capacity: 1 << 20}), 0)
		c, err := f.Create("c", size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := c.Append(make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		dev := f.Device()
		dev.ResetStats()
		it := c.Scan()
		bs := f.BlockSize()
		for k := 1; k <= c.Len(); k++ {
			if _, err := it.Next(); err != nil {
				t.Fatal(err)
			}
			if got, want := dev.Stats().ReadOps, uint64((k*size+bs-1)/bs); got != want {
				t.Fatalf("size %d: %d records taken, %d blocks read, want %d", size, k, got, want)
			}
		}
		it.Close()
	}
}

// TestPoisonOnDestroy: a blocked collection's chunks are its device
// bytes, so once PoisonOnDestroy's factory drops the collection a chunk
// taken before reads poison — on Truncate and on Destroy, whole blocks
// and the partial last one alike — and a scan of the truncated
// collection reads nothing of it.
func TestPoisonOnDestroy(t *testing.T) {
	for _, drop := range []string{"truncate", "destroy"} {
		f := storage.PoisonOnDestroy(blocked.New(pmem.MustOpen(pmem.Config{Capacity: 1 << 20}), 0))
		c, err := f.Create("c", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := record.Generate(100, 1, c.Append); err != nil { // 7.8 blocks
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// Records 0–11 lie in the first block, 90–99 in the partial last.
		var recs [][]byte
		for _, from := range []int{0, 90} {
			chunk, err := c.ScanFrom(from).(storage.ChunkIterator).NextChunk(10)
			if err != nil || len(chunk) != 10 {
				t.Fatalf("%s: chunk of %d records from %d: %v", drop, len(chunk), from, err)
			}
			recs = append(recs, chunk...)
		}
		if drop == "truncate" {
			err = c.Truncate()
		} else {
			err = c.Destroy()
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			for _, b := range rec {
				if b != storage.PoisonByte {
					t.Fatalf("%s: chunk record %d survived the drop", drop, i)
				}
			}
		}
		if drop == "truncate" {
			if n := len(keysOf(t, c.Scan())); n != 0 {
				t.Errorf("truncated collection scanned %d records", n)
			}
		}
	}
}
