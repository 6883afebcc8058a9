package sorts

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// parallelSortAlgorithms are the operators whose execution plan changes
// under env.Parallelism > 1.
func parallelSortAlgorithms() []Algorithm {
	return []Algorithm{
		NewExternalMergeSort(),
		NewSegmentSort(0.3),
		NewSegmentSort(0.8),
		NewHybridSort(0.3),
	}
}

// sortWith runs a on a fresh device at the given parallelism and returns
// the output records plus the device I/O stats of the sort alone.
func sortWith(t *testing.T, a Algorithm, n, budgetRecords, parallelism int) ([][]byte, pmem.Stats) {
	t.Helper()
	env := testkit.Env(t, "blocked", kernelDevice, budgetRecords)
	env.Parallelism = parallelism
	in := loadInput(t, env, n, 7)
	out, err := env.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	env.Factory.Device().ResetStats()
	if err := a.Sort(env, in, out); err != nil {
		t.Fatalf("%s (P=%d): %v", a.Name(), parallelism, err)
	}
	st := env.Factory.Device().Stats()
	recs, err := storage.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

// TestParallelSortDeterminism asserts the paper-preserving property of the
// parallel plans: P=4 output equals P=1 output record-for-record.
func TestParallelSortDeterminism(t *testing.T) {
	const n, budget = 20_000, 1200
	for _, a := range parallelSortAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			serial, _ := sortWith(t, a, n, budget, 1)
			parallel, _ := sortWith(t, a, n, budget, 4)
			if len(serial) != len(parallel) {
				t.Fatalf("P=4 emitted %d records, P=1 emitted %d", len(parallel), len(serial))
			}
			for i := range serial {
				if !bytes.Equal(serial[i], parallel[i]) {
					t.Fatalf("record %d differs: P=1 key %d, P=4 key %d",
						i, record.Key(serial[i]), record.Key(parallel[i]))
				}
			}
		})
	}
}

// TestParallelSortIOInvariance asserts the write-limited invariant: the
// cacheline read/write counts under P=4 stay within 5% of the serial
// counts (the paper's cost model must keep holding under parallelism).
func TestParallelSortIOInvariance(t *testing.T) {
	const n, budget = 20_000, 1200
	for _, a := range parallelSortAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			_, serial := sortWith(t, a, n, budget, 1)
			_, parallel := sortWith(t, a, n, budget, 4)
			assertWithin(t, "writes", serial.Writes, parallel.Writes, 0.05)
			assertWithin(t, "reads", serial.Reads, parallel.Reads, 0.05)
		})
	}
}

func assertWithin(t *testing.T, what string, serial, parallel uint64, tol float64) {
	t.Helper()
	if serial == 0 {
		if parallel != 0 {
			t.Errorf("%s: serial 0, parallel %d", what, parallel)
		}
		return
	}
	ratio := float64(parallel)/float64(serial) - 1
	if ratio < -tol || ratio > tol {
		t.Errorf("%s drifted %.2f%% under parallelism: serial %d, parallel %d",
			what, ratio*100, serial, parallel)
	}
}

// TestParallelRunFormationCappedByFanIn is the regression test for the
// run-count-aware worker cap: at a tiny (1%) memory budget, parallel run
// formation used to multiply the run count past the merge fan-in and pay
// an extra merge pass — a full read+write of the input — that the serial
// plan did not. With the cap, the high-P write count stays at the serial
// level.
func TestParallelRunFormationCappedByFanIn(t *testing.T) {
	const n = 20_000
	const budget = n / 100 // the 1% memory point: 200 records, ~15 buffers
	for _, a := range []Algorithm{NewExternalMergeSort(), NewSegmentSort(0.8)} {
		t.Run(a.Name(), func(t *testing.T) {
			serialOut, serial := sortWith(t, a, n, budget, 1)
			parallelOut, parallel := sortWith(t, a, n, budget, 8)
			assertWithin(t, "writes", serial.Writes, parallel.Writes, 0.05)
			if len(serialOut) != len(parallelOut) {
				t.Fatalf("P=8 emitted %d records, P=1 emitted %d", len(parallelOut), len(serialOut))
			}
			for i := range serialOut {
				if !bytes.Equal(serialOut[i], parallelOut[i]) {
					t.Fatalf("record %d differs between P=1 and P=8", i)
				}
			}
		})
	}
}

// TestCapRunWorkersNeverBlocksAmplePlans: with room in the merge fan-in
// the cap must leave the requested parallelism alone.
func TestCapRunWorkersNeverBlocksAmplePlans(t *testing.T) {
	env := testkit.Env(t, "blocked", sortDevice, 4000) // 4000 records ≈ 312 buffers of fan-in
	env.Parallelism = 8
	if got := capRunWorkers(env, 20_000, record.Size, 8); got != 8 {
		t.Errorf("ample fan-in capped workers to %d, want 8", got)
	}
	// And at an absurdly tiny budget it degrades gracefully to ≥ 1.
	tiny := testkit.Env(t, "blocked", sortDevice, 4)
	tiny.Parallelism = 8
	if got := capRunWorkers(tiny, 20_000, record.Size, 8); got < 1 {
		t.Errorf("cap returned %d workers", got)
	}
}

// TestConcurrentSortsSharedDevice runs several sorts at once on one device
// and factory — the situation the storage-catalog and allocator locking
// must survive (run with -race).
func TestConcurrentSortsSharedDevice(t *testing.T) {
	const n, budget = 8_000, 300
	fac := testkit.Factory(t, "blocked", pmem.Config{Capacity: kernelDevice})

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := algo.NewParallelEnv(fac, int64(budget*record.Size), 2)
			in, err := env.CreateTemp("cin", record.Size)
			if err != nil {
				errCh <- err
				return
			}
			if err := record.Generate(n, uint64(g), in.Append); err != nil {
				errCh <- err
				return
			}
			if err := in.Close(); err != nil {
				errCh <- err
				return
			}
			out, err := env.CreateTemp("cout", record.Size)
			if err != nil {
				errCh <- err
				return
			}
			if err := NewSegmentSort(0.5).Sort(env, in, out); err != nil {
				errCh <- err
				return
			}
			if out.Len() != n {
				errCh <- fmt.Errorf("concurrent sort output has %d records, want %d", out.Len(), n)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
