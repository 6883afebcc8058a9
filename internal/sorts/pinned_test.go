package sorts

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wlpm/internal/cost"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// pinnedRun is what one baseline run left behind: the FNV-64a hash of
// its output bytes and the device's cacheline and call counters.
type pinnedRun struct {
	hash                             uint64
	reads, writes, readOps, writeOps uint64
}

// TestBaselineCountersPinned holds ExMS, SelS and HybS to the numbers
// their own loops produced at the commit before those loops were
// deleted: they now run as SegS at x = 1, as LaS's loop under a
// never-materialize policy, and with a selection pass for HybS's
// selection region, and nothing else would notice if a change to the
// shared code moved one of them.
func TestBaselineCountersPinned(t *testing.T) {
	want := map[string]pinnedRun{
		"ExMS/blocked/p1": {0xa177ad602fb8c05e, 22388, 22388, 1411, 1411},
		"ExMS/blocked/p4": {0xa177ad602fb8c05e, 22730, 22538, 1465, 1453},
		"ExMS/pmfs/p1":    {0xa177ad602fb8c05e, 22388, 23948, 1411, 2971},
		"ExMS/pmfs/p4":    {0xa177ad602fb8c05e, 22586, 24503, 1456, 3418},
		"SelS/blocked/p1": {0xa177ad602fb8c05e, 300000, 7500, 18760, 469},
		"SelS/blocked/p4": {0xa177ad602fb8c05e, 300000, 7500, 18760, 469},
		"SelS/pmfs/p1":    {0xa177ad602fb8c05e, 300000, 7975, 18760, 944},
		"SelS/pmfs/p4":    {0xa177ad602fb8c05e, 300000, 7975, 18760, 944},

		"HybS(0.50)/blocked/p1": {0xa177ad602fb8c05e, 22260, 22260, 1409, 1409},
		"HybS(0.50)/blocked/p4": {0xa177ad602fb8c05e, 22324, 22260, 1413, 1409},
		"HybS(0.50)/pmfs/p1":    {0xa177ad602fb8c05e, 22260, 23951, 1409, 3100},
		"HybS(0.50)/pmfs/p4":    {0xa177ad602fb8c05e, 22260, 23951, 1409, 3100},
	}
	for _, a := range []Algorithm{NewExternalMergeSort(), NewSelectionSort(), NewHybridSort(0.5)} {
		for _, backend := range []string{"blocked", "pmfs"} {
			for _, par := range []int{1, 4} {
				id := fmt.Sprintf("%s/%s/p%d", a.Name(), backend, par)
				if got := pinnedSort(t, a, backend, par); got != want[id] {
					t.Errorf("%s: got %+v, pinned %+v", id, got, want[id])
				}
			}
		}
	}
}

// TestFamilyDegenerateSettings: segment sort's ends are the baselines,
// output byte for byte and device call for call (§2.1.1) — SegS(1) is
// ExMS's own code, SegS(0) reaches SelS's I/O by a different route (a
// selection stream into the final merge instead of LaS's loop). The cost
// model prices each pair as one profile on the strength of this.
func TestFamilyDegenerateSettings(t *testing.T) {
	for _, pair := range [][2]Algorithm{
		{NewSegmentSort(1), NewExternalMergeSort()},
		{NewSegmentSort(0), NewSelectionSort()},
	} {
		for _, backend := range []string{"blocked", "pmfs"} {
			for _, par := range []int{1, 4} {
				got, want := pinnedSort(t, pair[0], backend, par), pinnedSort(t, pair[1], backend, par)
				if got != want {
					t.Errorf("%s on %s at P=%d: %+v, %s: %+v", pair[0].Name(), backend, par, got, pair[1].Name(), want)
				}
			}
		}
	}
}

// TestFamilyAutoSegmentSortRunsItsPrice: SegS(auto) runs the SegS its
// profile prices — the knob the planner places for the run's |T|, M and
// λ — output byte for byte and device call for call.
func TestFamilyAutoSegmentSortRunsItsPrice(t *testing.T) {
	for _, backend := range []string{"blocked", "pmfs"} {
		env := testkit.Env(t, backend, sortDevice, pinnedBudget)
		bs := float64(env.Factory.BlockSize())
		x := cost.SegSKnob(pinnedN*record.Size/bs, pinnedBudget*record.Size/bs, env.Lambda(), 1, cost.Emit{})
		for _, par := range []int{1, 4} {
			got, want := pinnedSort(t, NewAutoSegmentSort(), backend, par), pinnedSort(t, NewSegmentSort(x), backend, par)
			if got != want {
				t.Errorf("SegS(auto) on %s at P=%d: %+v, SegS(%v): %+v", backend, par, got, x, want)
			}
		}
	}
}

// pinnedN and pinnedBudget are pinnedSort's input and memory in records.
const pinnedN, pinnedBudget = 6000, 150

// pinnedSort sorts the pinned input with a on a fresh device.
func pinnedSort(t *testing.T, a Algorithm, backend string, par int) pinnedRun {
	t.Helper()
	env := testkit.Env(t, backend, sortDevice, pinnedBudget)
	env.Parallelism = par
	in := loadInput(t, env, pinnedN, 7)
	out, err := env.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	env.Factory.Device().ResetStats()
	if err := a.Sort(env, in, out); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	st := env.Factory.Device().Stats()
	return pinnedRun{hashOf(t, out), st.Reads, st.Writes, st.ReadOps, st.WriteOps}
}

// hashOf is the FNV-64a hash of c's records in order.
func hashOf(t testing.TB, c storage.Collection) uint64 {
	t.Helper()
	recs, err := storage.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range recs {
		h.Write(r)
	}
	return h.Sum64()
}
