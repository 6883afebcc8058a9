package sorts

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// keyDistributions generate the grid's input key patterns: uniform
// permuted keys, a skewed (quadratically clustered) domain, and a
// duplicate-heavy domain where every key repeats ~400 times.
var keyDistributions = []struct {
	name string
	key  func(i, n int, rng *testkit.RNG) uint64
}{
	{"uniform", func(i, n int, rng *testkit.RNG) uint64 { return rng.Next() % uint64(4*n) }},
	{"skewed", func(i, n int, rng *testkit.RNG) uint64 { return rng.Skewed(n) }},
	{"dups", func(i, n int, rng *testkit.RNG) uint64 { return rng.Dups() }},
}

// loadDistInput builds an input collection under the named distribution.
func loadDistInput(t testing.TB, env *algo.Env, n int, dist func(i, n int, rng *testkit.RNG) uint64) storage.Collection {
	t.Helper()
	in, err := env.CreateTemp("gridin", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	rng := testkit.NewRNG(0x9e3779b97f4a7c15)
	rec := make([]byte, record.Size)
	for i := 0; i < n; i++ {
		record.Fill(rec, dist(i, n, rng))
		if err := in.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// sortGrid runs a at parallelism P and returns the output records, the
// device stats of the sort, and the final-merge phase accounting. spin
// selects a device that actually delays for the simulated latencies
// (yielding between spin checks), so concurrent workers interleave even
// on a single-CPU machine — required to observe the overlap clock
// dropping below the serial clock.
func sortGrid(t *testing.T, a Algorithm, dist func(i, n int, rng *testkit.RNG) uint64, n, budgetRecords, parallelism int, spin bool) ([][]byte, pmem.Stats, algo.PhaseStat) {
	t.Helper()
	env := algo.NewParallelEnv(testkit.Factory(t, "blocked", pmem.Config{Capacity: kernelDevice, Spin: spin}), int64(budgetRecords*record.Size), parallelism)
	rec := algo.NewPhaseRecorder()
	env.WithPhases(rec)
	in := loadDistInput(t, env, n, dist)
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
	return recs, st, rec.Phase(FinalMergePhase)
}

// TestFinalMergeIdentityGrid is the byte-identity grid of the parallel
// final merge: P ∈ {2,4,8} × algorithms × key distributions, asserting
// output record-for-record equal to serial, final-merge phase cacheline
// writes *identical* to serial (the phase writes only reserved full
// blocks), and total reads/writes within the 5% tolerance.
func TestFinalMergeIdentityGrid(t *testing.T) {
	const n, budget = 20_000, 2500 // few large runs: the parallel final merge engages
	algos := []Algorithm{
		NewExternalMergeSort(),
		NewHybridSort(0.4),
		NewSegmentSort(0.6), // streaming segment: final merge stays serial, identity still holds
	}
	for _, a := range algos {
		for _, dist := range keyDistributions {
			serial, serialStats, serialPhase := sortGrid(t, a, dist.key, n, budget, 1, false)
			for _, p := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/P=%d", a.Name(), dist.name, p), func(t *testing.T) {
					parallel, parStats, parPhase := sortGrid(t, a, dist.key, n, budget, p, false)
					if len(serial) != len(parallel) {
						t.Fatalf("P=%d emitted %d records, serial %d", p, len(parallel), len(serial))
					}
					for i := range serial {
						if !bytes.Equal(serial[i], parallel[i]) {
							t.Fatalf("record %d differs: serial key %d, P=%d key %d",
								i, record.Key(serial[i]), p, record.Key(parallel[i]))
						}
					}
					if serialPhase.Stats.Writes != parPhase.Stats.Writes {
						t.Errorf("final-merge phase writes drifted: serial %d, P=%d %d",
							serialPhase.Stats.Writes, p, parPhase.Stats.Writes)
					}
					assertWithin(t, "total writes", serialStats.Writes, parStats.Writes, 0.05)
					assertWithin(t, "total reads", serialStats.Reads, parStats.Reads, 0.05)
				})
			}
		}
	}
}

// TestParallelFinalMergeEngages proves the lifted phase actually runs
// parallel: at P=8 the final-merge phase's overlap clock must advance
// strictly slower than its serial clock (workers were bracketed on the
// device), which cannot happen on the single-streamed serial path.
func TestParallelFinalMergeEngages(t *testing.T) {
	const n, budget = 20_000, 2500
	_, _, phase := sortGrid(t, NewExternalMergeSort(), keyDistributions[0].key, n, budget, 8, true)
	if phase.Stats.Writes == 0 {
		t.Fatal("final-merge phase recorded no writes; phase bracketing broken")
	}
	if phase.Stats.SimIOOverlap >= phase.Stats.SimIOTime {
		t.Errorf("final-merge overlap clock %v not below serial clock %v at P=8: merge ran serial",
			phase.Stats.SimIOOverlap, phase.Stats.SimIOTime)
	}
	if phase.Stats.SimIOOverlap == 0 {
		t.Error("final-merge overlap clock recorded nothing")
	}
}

// TestFinalMergeCancellation cancels mid final merge at P=8 and asserts
// the error surfaces, every temp is swept, and no worker goroutine
// leaks.
func TestFinalMergeCancellation(t *testing.T) {
	const n, budget = 20_000, 2500
	env := testkit.Env(t, "blocked", kernelDevice, budget)
	env.Parallelism = 8
	in := loadDistInput(t, env, n, keyDistributions[0].key)
	out, err := env.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	// Let run formation complete (~n/PollInterval polls) and cancel a few
	// polls into the merge phase.
	env.WithContext(testkit.CancelAfter(context.Background(), int64(n/algo.PollInterval)+20))

	before := runtime.NumGoroutine()
	if err := NewExternalMergeSort().Sort(env, in, out); err == nil {
		t.Fatal("cancelled sort returned nil error")
	}
	if err := env.SweepTemps(); err != nil {
		t.Fatal(err)
	}
	if live := env.LiveTemps(); live != 0 {
		t.Errorf("%d live temps after cancellation sweep", live)
	}
	testkit.WaitGoroutines(t, before)
}

// errInjected is flakyStore's device failure.
var errInjected = errors.New("injected reserved-block write failure")

// flakyStore is a DRAM BlockStoreAt whose WriteReserved fails on call
// failAt (1-based; 0 never) and records the slot of every call.
type flakyStore struct {
	bs     int
	mu     sync.Mutex
	blocks [][]byte // per seq; nil while reserved and unwritten
	calls  []int
	failAt int
}

func (s *flakyStore) WriteBlock(seq int, data []byte) error {
	if seq != len(s.blocks) {
		return fmt.Errorf("out-of-order block write %d", seq)
	}
	s.blocks = append(s.blocks, bytes.Clone(data))
	return nil
}

func (s *flakyStore) ReadBlock(off int64, buf []byte) ([]byte, error) {
	b := s.blocks[off/int64(s.bs)]
	if b == nil {
		return nil, fmt.Errorf("read of unwritten block at %d", off)
	}
	copy(buf, b[off%int64(s.bs):])
	return buf, nil
}

func (s *flakyStore) Truncate() error { s.blocks = nil; return nil }
func (s *flakyStore) Destroy() error  { return s.Truncate() }

func (s *flakyStore) ReserveBlocks(seq, n int) error {
	if seq != len(s.blocks) {
		return fmt.Errorf("out-of-order reservation %d", seq)
	}
	s.blocks = append(s.blocks, make([][]byte, n)...)
	return nil
}

func (s *flakyStore) WriteReserved(seq int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, seq)
	if len(s.calls) == s.failAt {
		return errInjected
	}
	s.blocks[seq] = bytes.Clone(data)
	return nil
}

func (s *flakyStore) ReleaseBlocks(seq, n int) error {
	if seq+n != len(s.blocks) {
		return fmt.Errorf("release of non-suffix [%d,%d)", seq, seq+n)
	}
	s.blocks = s.blocks[:seq]
	return nil
}

// TestFinalMergeWriteFailureRollsBack fails one reserved-block write of
// a parallel final merge: once a block a worker writes inside its range,
// once a block Commit stitches from the DRAM tail and the first range's
// head. Either way the error surfaces once, the output collection shows
// exactly what it held before the merge, every reserved slot is
// released, the runs are gone and the output still appends.
func TestFinalMergeWriteFailureRollsBack(t *testing.T) {
	const pre, perRun, nRuns = 20, 3000, 3 // 20 records: one flushed block and a 576-byte tail
	env := testkit.Env(t, "blocked", sortDevice, 2500)
	env.Parallelism = 4
	bs := env.Factory.BlockSize()
	preRecs := make([][]byte, pre)
	for i := range preRecs {
		preRecs[i] = make([]byte, record.Size)
		record.Fill(preRecs[i], uint64(i))
	}
	merge := func(failAt int) (*flakyStore, storage.Collection, error) {
		runs := make([]storage.Collection, nRuns)
		rec := make([]byte, record.Size)
		for r := range runs {
			c, err := env.CreateTemp("run", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			runs[r] = sampleRun(c)
			for i := 0; i < perRun; i++ {
				record.Fill(rec, uint64(i*nRuns+r))
				if err := runs[r].Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := runs[r].Close(); err != nil {
				t.Fatal(err)
			}
		}
		store := &flakyStore{bs: bs, failAt: failAt}
		out := storage.NewBaseCollection("out", record.Size, bs, store)
		for _, r := range preRecs {
			if err := out.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		handled, err := parallelFinalMerge(env, runs, out, record.Size)
		if !handled {
			t.Fatal("parallel final merge did not engage")
		}
		return store, out, err
	}

	ref, out, err := merge(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != pre+nRuns*perRun {
		t.Fatalf("merged %d records, want %d", out.Len(), pre+nRuns*perRun)
	}
	// Slot 1 holds the DRAM tail's bytes, so only Commit writes it, and
	// Commit writes after every worker has returned.
	stitched := slices.Index(ref.calls, 1) + 1
	if stitched < 2 {
		t.Fatalf("reserved writes %v: want worker writes before the stitched slot 1", ref.calls)
	}

	for _, tc := range []struct {
		name   string
		failAt int
	}{{"worker block", 1}, {"stitched block", stitched}} {
		t.Run(tc.name, func(t *testing.T) {
			store, out, err := merge(tc.failAt)
			if !errors.Is(err, errInjected) || strings.Count(err.Error(), errInjected.Error()) != 1 {
				t.Fatalf("merge error %v, want the injected failure once", err)
			}
			if len(store.blocks) != 1 {
				t.Errorf("store holds %d block slots after the failure, want the 1 flushed before it", len(store.blocks))
			}
			if live := env.LiveTemps(); live != 0 {
				t.Errorf("%d runs left after the failed merge", live)
			}
			if err := out.Append(preRecs[0]); err != nil {
				t.Fatal(err)
			}
			got, err := storage.ReadAll(out)
			if err != nil {
				t.Fatal(err)
			}
			want := append(slices.Clone(preRecs), preRecs[0])
			if len(got) != len(want) {
				t.Fatalf("output holds %d records after the failure and one append, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d differs from the pre-merge contents", i)
				}
			}
		})
	}
}
