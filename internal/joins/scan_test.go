package joins

import (
	"context"
	"errors"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// The joins walk every input through Env.Scan, which polls by itself:
// block chunks in, one record at a time out, the same device reads as a
// Next scan.

func TestScanMatchesNextScan(t *testing.T) {
	env := testkit.Env(t, "blocked", joinDevice, 100)
	_, right := loadJoinInputs(t, env, 50, 1000, 3)
	dev := env.Factory.Device()
	for _, src := range []storage.Collection{right, storage.Slice(right, 7, 701), storage.Slice(right, 990, 1000)} {
		dev.ResetStats()
		want, err := storage.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		byRecord := dev.Stats()
		dev.ResetStats()
		i := 0
		err = env.Scan(src, func(rec []byte) error {
			if i >= len(want) || string(rec) != string(want[i]) {
				t.Fatalf("%s: record %d differs from the Next scan", src.Name(), i)
			}
			i++
			return nil
		})
		if err != nil || i != len(want) {
			t.Fatalf("%s: scanned %d of %d records: %v", src.Name(), i, len(want), err)
		}
		if byChunk := dev.Stats(); byChunk.Reads != byRecord.Reads || byChunk.ReadOps != byRecord.ReadOps {
			t.Errorf("%s: chunked scan read %d lines in %d ops, Next scan %d in %d",
				src.Name(), byChunk.Reads, byChunk.ReadOps, byRecord.Reads, byRecord.ReadOps)
		}
	}
}

// Cancellation: a scan checks the context as its first chunk arrives, so
// one cancelled before it starts hands on nothing. Its second check
// comes with the chunk that brings the records read to PollInterval,
// which is not on a block-chunk boundary: a context that cancels there
// lets through every record of the chunks before, none of that chunk.
func TestScanCancelMidChunk(t *testing.T) {
	env := testkit.Env(t, "blocked", joinDevice, 100)
	_, right := loadJoinInputs(t, env, 50, 1000, 4)
	if chunk := env.ChunkRecords(record.Size); algo.PollInterval%chunk == 0 {
		t.Fatalf("poll interval %d falls on a %d-record chunk boundary", algo.PollInterval, chunk)
	}
	it := right.Scan()
	defer it.Close()
	ci, before := storage.Chunked(it), 0
	for {
		recs, err := ci.NextChunk(env.ChunkRecords(record.Size))
		if err != nil {
			t.Fatal(err)
		}
		if before+len(recs) >= algo.PollInterval {
			break
		}
		before += len(recs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want int
	}{
		{"cancelled before the scan", ctx, 0},
		{"cancelled on the second check", testkit.CancelAfter(context.Background(), 1), before},
	} {
		env.WithContext(c.ctx)
		seen := 0
		err := env.Scan(right, func([]byte) error { seen++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if seen != c.want {
			t.Errorf("%s: callback saw %d records, want exactly %d", c.name, seen, c.want)
		}
	}
}

// TestScanAllocs: what a scan allocates is per scan (the iterator and its
// block buffer), nothing per record.
func TestScanAllocs(t *testing.T) {
	const n = 20_000
	env := testkit.Env(t, "blocked", joinDevice, 100)
	_, right := loadJoinInputs(t, env, 50, n, 5)
	seen := 0
	allocs := testing.AllocsPerRun(5, func() {
		if err := env.Scan(right, func([]byte) error { seen++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if perRec := allocs / n; perRec >= 0.01 {
		t.Fatalf("%.0f allocations scanning %d records: %.4f per record, want 0", allocs, n, perRec)
	}
	t.Logf("%.0f allocations per %d-record scan", allocs, n)
}
