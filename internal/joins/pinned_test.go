package joins

import (
	"fmt"
	"hash/fnv"
	"testing"

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

// TestBaselineCountersPinned holds HJ, GJ and NLJ to the numbers their
// own loops produced at the commit before those loops were deleted: they
// now run as LaJ's loop under an always-materialize policy, the Grace
// phase over all k partitions and HybJ's nested-loops half over the
// whole left input. HJ is on no benchmark workload, so nothing else
// would notice if a change to the shared code moved it.
func TestBaselineCountersPinned(t *testing.T) {
	want := map[string]pinnedRun{
		"HJ/blocked/p1":  {0xa20f0c558a2d3e51, 127475, 137475, 7984, 8608},
		"HJ/blocked/p4":  {0xa20f0c558a2d3e51, 127475, 137475, 7984, 8608},
		"HJ/pmfs/p1":     {0xa20f0c558a2d3e51, 127475, 146354, 7984, 17487},
		"HJ/pmfs/p4":     {0xa20f0c558a2d3e51, 127475, 146354, 7984, 17487},
		"GJ/blocked/p1":  {0xa20f0c558a2d3e51, 30014, 40014, 1890, 2514},
		"GJ/blocked/p4":  {0xa20f0c558a2d3e51, 30695, 40050, 1990, 2567},
		"GJ/pmfs/p1":     {0xa20f0c558a2d3e51, 30014, 42744, 1890, 5244},
		"GJ/pmfs/p4":     {0xa20f0c558a2d3e51, 30695, 43329, 1990, 5846},
		"NLJ/blocked/p1": {0xdf9cf5e1a88a53b1, 202740, 25000, 12684, 1563},
		"NLJ/blocked/p4": {0xdf9cf5e1a88a53b1, 204260, 25000, 12779, 1563},
		"NLJ/pmfs/p1":    {0xdf9cf5e1a88a53b1, 202740, 26571, 12684, 3134},
		"NLJ/pmfs/p4":    {0xdf9cf5e1a88a53b1, 204260, 26571, 12779, 3134},
	}
	for _, a := range []Algorithm{NewHash(), NewGrace(), NewNestedLoops()} {
		for _, backend := range []string{"blocked", "pmfs"} {
			for _, par := range []int{1, 4} {
				id := fmt.Sprintf("%s/%s/p%d", a.Name(), backend, par)
				if got := pinnedJoin(t, a, backend, par); got != want[id] {
					t.Errorf("%s: got %+v, pinned %+v", id, got, want[id])
				}
			}
		}
	}
}

// TestFamilyDegenerateSettings: the write-limited joins' end settings
// are the baselines, output byte for byte and device call for call —
// SegJ at intensity 1 is GJ (§2.2.2), HybJ with no left prefix is NLJ
// whatever y is (§2.2.1). The cost model prices each pair as one profile
// on the strength of this.
func TestFamilyDegenerateSettings(t *testing.T) {
	for _, pair := range [][2]Algorithm{
		{NewSegmentedGrace(1), NewGrace()},
		{NewHybridGraceNL(0, 0.7), NewNestedLoops()},
	} {
		for _, backend := range []string{"blocked", "pmfs"} {
			for _, par := range []int{1, 4} {
				got, want := pinnedJoin(t, pair[0], backend, par), pinnedJoin(t, pair[1], backend, par)
				if got != want {
					t.Errorf("%s on %s at P=%d: %+v, %s: %+v", pair[0].Name(), backend, par, got, pair[1].Name(), want)
				}
			}
		}
	}
}

// pinnedJoin joins the pinned inputs with a on a fresh device.
func pinnedJoin(t *testing.T, a Algorithm, backend string, par int) pinnedRun {
	t.Helper()
	const nLeft, nRight, budget = 2000, 10000, 150
	env := testkit.Env(t, backend, largeJoinDevice, budget)
	env.Parallelism = par
	left, right := loadJoinInputs(t, env, nLeft, nRight, 11)
	out, err := env.Factory.Create("out", 2*record.Size)
	if err != nil {
		t.Fatal(err)
	}
	env.Factory.Device().ResetStats()
	if err := a.Join(env, left, right, out); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	st := env.Factory.Device().Stats()
	recs, err := storage.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range recs {
		h.Write(r)
	}
	return pinnedRun{h.Sum64(), st.Reads, st.Writes, st.ReadOps, st.WriteOps}
}
