package joins

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

// parallelJoinAlgorithms are the partitioned joins whose execution plan
// changes under env.Parallelism > 1.
func parallelJoinAlgorithms() []Algorithm {
	return []Algorithm{
		NewGrace(),
		NewSegmentedGrace(0.5),
		NewSegmentedGrace(1),
		NewHybridGraceNL(0.5, 0.5),
		NewHybridGraceNL(0.8, 0.2),
	}
}

// joinWith runs a on a fresh device at the given parallelism and returns
// the output records plus the device I/O stats of the join alone.
func joinWith(t *testing.T, a Algorithm, nLeft, nRight, budgetRecords, parallelism int) ([][]byte, pmem.Stats) {
	t.Helper()
	env := testkit.Env(t, "blocked", largeJoinDevice, budgetRecords)
	env.Parallelism = parallelism
	left, right := loadJoinInputs(t, env, nLeft, nRight, 11)
	out, err := env.Factory.Create("out", 2*record.Size)
	if err != nil {
		t.Fatal(err)
	}
	env.Factory.Device().ResetStats()
	if err := a.Join(env, left, right, out); err != nil {
		t.Fatalf("%s (P=%d): %v", a.Name(), parallelism, err)
	}
	st := env.Factory.Device().Stats()
	recs, err := storage.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != nRight {
		t.Fatalf("%s (P=%d): %d matches, want %d", a.Name(), parallelism, len(recs), nRight)
	}
	return recs, st
}

// TestParallelJoinDeterminism asserts that the parallel plans emit the
// exact serial output: P=4 equals P=1 record-for-record.
func TestParallelJoinDeterminism(t *testing.T) {
	const nLeft, nRight, budget = 4_000, 20_000, 700
	for _, a := range parallelJoinAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			serial, _ := joinWith(t, a, nLeft, nRight, budget, 1)
			parallel, _ := joinWith(t, a, nLeft, nRight, budget, 4)
			if len(serial) != len(parallel) {
				t.Fatalf("P=4 emitted %d records, P=1 emitted %d", len(parallel), len(serial))
			}
			for i := range serial {
				if !bytes.Equal(serial[i], parallel[i]) {
					t.Fatalf("record %d differs: P=1 keys (%d,%d), P=4 keys (%d,%d)",
						i, record.Key(serial[i]), record.Key(serial[i][record.Size:]),
						record.Key(parallel[i]), record.Key(parallel[i][record.Size:]))
				}
			}
		})
	}
}

// TestParallelJoinIOInvariance asserts the write-limited invariant: the
// cacheline read/write counts under P=4 stay within 5% of the serial
// counts.
func TestParallelJoinIOInvariance(t *testing.T) {
	const nLeft, nRight, budget = 4_000, 20_000, 700
	for _, a := range parallelJoinAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			_, serial := joinWith(t, a, nLeft, nRight, budget, 1)
			_, parallel := joinWith(t, a, nLeft, nRight, budget, 4)
			assertWithinTol(t, "writes", serial.Writes, parallel.Writes, 0.05)
			assertWithinTol(t, "reads", serial.Reads, parallel.Reads, 0.05)
		})
	}
}

func assertWithinTol(t *testing.T, what string, serial, parallel uint64, tol float64) {
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

// TestConcurrentJoinsSharedDevice runs several parallel joins at once on
// one device and factory (run with -race).
func TestConcurrentJoinsSharedDevice(t *testing.T) {
	const nLeft, nRight, budget = 2_000, 8_000, 300
	fac := testkit.Factory(t, "blocked", pmem.Config{Capacity: largeJoinDevice})

	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := algo.NewParallelEnv(fac, int64(budget*record.Size), 2)
			left, err := env.CreateTemp("cl", record.Size)
			if err != nil {
				errCh <- err
				return
			}
			right, err := env.CreateTemp("cr", record.Size)
			if err != nil {
				errCh <- err
				return
			}
			if err := record.GenerateJoin(nLeft, nRight, uint64(g), left.Append, right.Append); err != nil {
				errCh <- err
				return
			}
			if err := left.Close(); err != nil {
				errCh <- err
				return
			}
			if err := right.Close(); err != nil {
				errCh <- err
				return
			}
			out, err := env.CreateTemp("co", 2*record.Size)
			if err != nil {
				errCh <- err
				return
			}
			if err := NewGrace().Join(env, left, right, out); err != nil {
				errCh <- err
				return
			}
			if out.Len() != nRight {
				errCh <- fmt.Errorf("concurrent join emitted %d matches, want %d", out.Len(), nRight)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
