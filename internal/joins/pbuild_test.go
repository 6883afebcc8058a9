package joins

import (
	"bytes"
	"fmt"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// joinKeyDistributions shape the grid's build-side keys: unique keys,
// a quadratically clustered domain, and a duplicate-heavy domain.
// Probe keys are drawn from the same domain so matches occur at every
// multiplicity. device is the capacity a 3 000 ⋈ 9 000 cell of the
// distribution needs: its matches are 3 000, 30 623 and 538 911 rows,
// 0.5, 4.9 and 86 MB of 160-byte output.
var joinKeyDistributions = []struct {
	name   string
	device int64
	key    func(i, n int, rng *testkit.RNG) uint64
}{
	{"uniform", 4 << 20, func(i, n int, rng *testkit.RNG) uint64 { return uint64(i) }},
	{"skewed", 16 << 20, func(i, n int, rng *testkit.RNG) uint64 { return rng.Skewed(n) }},
	{"dups", 96 << 20, func(i, n int, rng *testkit.RNG) uint64 { return rng.Dups() }},
}

// loadDistJoinInputs builds left under the named key distribution and
// right with keys drawn from the same generator (same domain, different
// sequence).
func loadDistJoinInputs(t *testing.T, env *algo.Env, nLeft, nRight int, dist func(i, n int, rng *testkit.RNG) uint64) (left, right storage.Collection) {
	t.Helper()
	mk := func(name string, n int, rng *testkit.RNG) storage.Collection {
		c, err := env.Factory.Create(name, record.Size)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, record.Size)
		for i := 0; i < n; i++ {
			record.Fill(rec, dist(i, nLeft, rng))
			if err := c.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	left = mk("gl", nLeft, testkit.NewRNG(0x6a09e667f3bcc909))
	right = mk("gr", nRight, testkit.NewRNG(0xbb67ae8584caa73b))
	return left, right
}

// joinGrid runs a at parallelism P under a key distribution, on a device
// of the given capacity, and returns the output records, device stats,
// and build-phase accounting. spin selects a device that actually delays
// for the simulated latencies (yielding between spin checks), so
// concurrent workers interleave even on a single-CPU machine.
func joinGrid(t *testing.T, a Algorithm, dist func(i, n int, rng *testkit.RNG) uint64, capacity int64, nLeft, nRight, budgetRecords, parallelism int, spin bool) ([][]byte, pmem.Stats, algo.PhaseStat) {
	t.Helper()
	env := algo.NewParallelEnv(testkit.Factory(t, "blocked", pmem.Config{Capacity: capacity, Spin: spin}), int64(budgetRecords*record.Size), parallelism)
	rec := algo.NewPhaseRecorder()
	env.WithPhases(rec)
	left, right := loadDistJoinInputs(t, env, nLeft, nRight, dist)
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
	return recs, st, rec.Phase(BuildPhase)
}

// TestParallelBuildIdentityGrid is the joins half of the byte-identity
// grid: P ∈ {2,4,8} × algorithms × key distributions. The parallel
// hash-table builds must emit the serial output record-for-record, the
// build phase must write nothing at every P (it is read-only), and total
// I/O stays within the 5% tolerance.
func TestParallelBuildIdentityGrid(t *testing.T) {
	const nLeft, nRight, budget = 3_000, 9_000, 700
	algos := []Algorithm{
		NewGrace(),
		NewNestedLoops(),
		NewSegmentedGrace(0.5),
		NewHybridGraceNL(0.5, 0.5),
	}
	for _, a := range algos {
		for _, dist := range joinKeyDistributions {
			serial, serialStats, serialPhase := joinGrid(t, a, dist.key, dist.device, nLeft, nRight, budget, 1, false)
			if serialPhase.Stats.Writes != 0 {
				t.Fatalf("%s/%s: serial build phase wrote %d cachelines, want 0",
					a.Name(), dist.name, serialPhase.Stats.Writes)
			}
			for _, p := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/P=%d", a.Name(), dist.name, p), func(t *testing.T) {
					parallel, parStats, parPhase := joinGrid(t, a, dist.key, dist.device, nLeft, nRight, budget, p, false)
					if len(serial) != len(parallel) {
						t.Fatalf("P=%d emitted %d records, serial %d", p, len(parallel), len(serial))
					}
					for i := range serial {
						if !bytes.Equal(serial[i], parallel[i]) {
							t.Fatalf("record %d differs: serial keys (%d,%d), P=%d keys (%d,%d)",
								i, record.Key(serial[i]), record.Key(serial[i][record.Size:]),
								p, record.Key(parallel[i]), record.Key(parallel[i][record.Size:]))
						}
					}
					if parPhase.Stats.Writes != 0 {
						t.Errorf("build phase wrote %d cachelines at P=%d, want 0", parPhase.Stats.Writes, p)
					}
					assertWithinTol(t, "total writes", serialStats.Writes, parStats.Writes, 0.05)
					assertWithinTol(t, "total reads", serialStats.Reads, parStats.Reads, 0.05)
				})
			}
		}
	}
}

// TestParallelBuildEngages proves the build phase actually fans out: at
// P=8 its overlap clock must run strictly below its serial clock.
func TestParallelBuildEngages(t *testing.T) {
	const nLeft, nRight, budget = 3_000, 9_000, 700
	_, _, phase := joinGrid(t, NewGrace(), joinKeyDistributions[0].key, joinKeyDistributions[0].device, nLeft, nRight, budget, 8, true)
	if phase.Stats.Reads == 0 {
		t.Fatal("build phase recorded no reads; phase bracketing broken")
	}
	if phase.Stats.SimIOOverlap >= phase.Stats.SimIOTime {
		t.Errorf("build overlap clock %v not below serial clock %v at P=8: builds ran serial",
			phase.Stats.SimIOOverlap, phase.Stats.SimIOTime)
	}
}
