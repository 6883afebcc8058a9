package sorts

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// streamKeys are the arrivals the Stream tests push: n keys over n/3
// groups, every group's rows scattered.
func streamKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i*7919) % uint64(n/3)
	}
	return keys
}

// foldWith is the test's combine when fold is set, and nil otherwise.
func foldWith(fold bool) func(dst, src []byte) {
	if fold {
		return addPartials
	}
	return nil
}

// pushKeys appends one partial per key into a fresh intake over env,
// folding when fold is set.
func pushKeys(env *algo.Env, keys []uint64, fold bool) (*Intake, error) {
	in, err := NewIntake(env, record.Size, foldWith(fold))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, record.Size)
	for i, k := range keys {
		if err := in.Append(setPartial(buf, k, 1, uint64(i))); err != nil {
			in.Discard()
			return nil, err
		}
	}
	return in, nil
}

// pullAll drains it in mixed pulls — chunks of 1, 7 and 64 records and
// single Nexts — and closes it.
func pullAll(it storage.Iterator) ([]byte, error) {
	var got bytes.Buffer
	ci := storage.Chunked(it)
	for i := 0; ; i++ {
		var recs [][]byte
		var err error
		if i%4 == 3 {
			var rec []byte
			rec, err = it.Next()
			recs = [][]byte{rec}
		} else {
			recs, err = ci.NextChunk([]int{1, 7, 64}[i%4])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			it.Close() //nolint:errcheck // the pull's error is the one reported
			return nil, err
		}
		for _, rec := range recs {
			got.Write(rec)
		}
	}
	return got.Bytes(), it.Close()
}

// TestIntakeStreamIsMergeIntoWithoutTheOutput: Stream ends an intake in
// its reader. Pulled in any mix of chunk sizes it serves the bytes ExMS
// sorts the same records into from a collection — SortFolding's, when it
// folds — resident and evicting, through intermediate merge passes at a
// budget of a few buffers. An evicting intake costs the device exactly
// what that stored sort costs into a sink that stores nothing, less its
// input scan: the runs and their merges, never an output; a resident one
// costs nothing at all. Its runs keep no key sidecar.
func TestIntakeStreamIsMergeIntoWithoutTheOutput(t *testing.T) {
	const n = 3000
	keys := streamKeys(n)
	for _, fold := range []bool{false, true} {
		for _, budget := range []int{30, n / 20, n} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("fold%v/budget%d/p%d", fold, budget, par), func(t *testing.T) {
					env := newParEnv(t, budget, par)
					dev := env.Factory.Device()
					src, err := env.Factory.Create("in", record.Size)
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]byte, record.Size)
					for i, k := range keys {
						if err := src.Append(setPartial(buf, k, 1, uint64(i))); err != nil {
							t.Fatal(err)
						}
					}
					if err := src.Close(); err != nil {
						t.Fatal(err)
					}
					dev.ResetStats()
					if _, err := storage.ReadAll(src); err != nil {
						t.Fatal(err)
					}
					scan := dev.Stats().Reads
					// The stored sort runs at P = 1: a fed run formation is
					// serial, and its chunked one would move the run
					// boundaries.
					var want bytes.Buffer
					dev.ResetStats()
					discard := storage.NewSink("discard", record.Size, func(rec []byte) error { want.Write(rec); return nil }, nil)
					if err := SortFolding(algo.NewEnv(env.Factory, env.MemoryBudget), NewExternalMergeSort(), src, discard, foldWith(fold)); err != nil {
						t.Fatal(err)
					}
					sorted := dev.Stats()

					dev.ResetStats()
					in, err := pushKeys(env, keys, fold)
					if err != nil {
						t.Fatal(err)
					}
					evicted := !in.resident()
					for _, r := range in.f.runs {
						if _, ok := r.(*sampledRun); ok {
							t.Fatal("an intake's run keeps a key sidecar its serial final merge never reads")
						}
					}
					it, err := in.Stream()
					if err != nil {
						t.Fatal(err)
					}
					got, err := pullAll(it)
					if err != nil {
						t.Fatal(err)
					}
					streamed := dev.Stats()
					if !bytes.Equal(got, want.Bytes()) {
						t.Fatalf("stream served %d records, the stored sort %d: contents differ", len(got)/record.Size, want.Len()/record.Size)
					}
					if evicted != (budget < n) {
						t.Errorf("budget %d: evicted=%v", budget, evicted)
					}
					if !evicted && (streamed.Writes != 0 || streamed.Reads != 0) {
						t.Errorf("a resident intake's stream cost %d writes, %d reads", streamed.Writes, streamed.Reads)
					}
					if evicted && (streamed.Writes != sorted.Writes || streamed.Reads+scan != sorted.Reads) {
						t.Errorf("stream cost %d writes, %d reads; the stored sort into a sink %d, %d less its %d-read input scan", streamed.Writes, streamed.Reads, sorted.Writes, sorted.Reads, scan)
					}
					if live := env.LiveTemps(); live != 0 {
						t.Fatalf("%d live temps after the stream closed", live)
					}
				})
			}
		}
	}
}

// TestIntakeStreamSweepsItsRuns: the stream owns the last runs. Closed
// after one record, cancelled mid-pull, between merge passes or while
// the producer still appends, or failing in a run's read-back, it leaves
// no run behind.
func TestIntakeStreamSweepsItsRuns(t *testing.T) {
	const n, budget = 3000, 30
	keys := streamKeys(n)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("close-early/p%d", par), func(t *testing.T) {
			env := newParEnv(t, budget, par)
			in, err := pushKeys(env, keys, true)
			if err != nil {
				t.Fatal(err)
			}
			it, err := in.Stream()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := it.Next(); err != nil {
				t.Fatal(err)
			}
			if env.LiveTemps() == 0 {
				t.Fatal("no run is open under the pull: nothing to sweep")
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("%d live temps after closing a stream one record in", live)
			}
		})
		t.Run(fmt.Sprintf("cancel/p%d", par), func(t *testing.T) {
			// run pushes, streams and drains under ctx, calling opened once
			// the stream is open.
			run := func(ctx context.Context, opened func()) (*algo.Env, error) {
				env := newParEnv(t, budget, par).WithContext(ctx)
				in, err := pushKeys(env, keys, true)
				if err != nil {
					return env, err
				}
				it, err := in.Stream()
				if err != nil {
					return env, err
				}
				opened()
				_, err = pullAll(it)
				return env, err
			}
			calib := testkit.NewCounting(context.Background())
			var opened int64
			if _, err := run(calib, func() { opened = calib.Polls() }); err != nil {
				t.Fatalf("calibration run: %v", err)
			}
			total := calib.Polls()
			if opened < 8 || total-opened < 4 {
				t.Fatalf("%d polls to open the stream, %d to pull it: too few to steer", opened, total-opened)
			}
			// Mid-append, between merge passes, at the last pass, mid-pull
			// and at the pull's last poll.
			for _, at := range []int64{opened / 8, opened / 2, opened - 1, opened + (total-opened)/2, total - 1} {
				env, err := run(testkit.CancelAfter(context.Background(), at), func() {})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d/%d: err = %v, want context.Canceled", at, total, err)
				}
				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("cancel at poll %d/%d leaked %d temp collections", at, total, live)
				}
			}
		})
		t.Run(fmt.Sprintf("run-read/p%d", par), func(t *testing.T) {
			base := newParEnv(t, budget, par)
			env := algo.NewParallelEnv(&testkit.FailingTemps{Factory: base.Factory, Prefix: "run", N: 5, Reads: true}, base.MemoryBudget, par)
			in, err := pushKeys(env, keys, true)
			if err != nil {
				t.Fatal(err)
			}
			it, err := in.Stream()
			if err == nil {
				_, err = pullAll(it)
			}
			if !errors.Is(err, testkit.ErrInjected) {
				t.Fatalf("err = %v, want the injected run read failure", err)
			}
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("%d live temps after a failed run read", live)
			}
		})
	}
}
