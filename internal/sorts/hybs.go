package sorts

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// HybridSort is HybS (§2.1.2, Algorithm 1). The memory budget is split
// into a selection region Rs (fraction x of M, the "write intensity") and
// a replacement-selection region Rr. Rs accumulates the globally smallest
// records — written exactly once, directly to the output — while Rr runs
// ordinary two-heap replacement selection over everything Rs displaces.
// The runs Rr produces are merged and appended after Rs's records. Rs is
// one selection pass (selection.go) whose survivors feed Rr.
//
// The pass that fills Rs and Rr is order-dependent (Rs tracks the global
// minima seen so far) and stays serial, and so do the intermediate passes
// merging Rr's runs (their groups merge one at a time, as every sort's
// do); under env.Parallelism > 1 the final merge appending after Rs's
// records splits the key domain across workers with byte-identical
// output.
type HybridSort struct {
	// Intensity is x ∈ (0, 1]: the fraction of M given to the selection
	// region. Larger x means fewer writes (more records bypass run
	// formation) but shorter replacement-selection runs.
	Intensity float64
}

// NewHybridSort returns HybS with the given selection-region fraction.
func NewHybridSort(x float64) *HybridSort { return &HybridSort{Intensity: x} }

// Name implements Algorithm.
func (s *HybridSort) Name() string { return fmt.Sprintf("HybS(%.2f)", s.Intensity) }

// Profile implements Algorithm.
func (s *HybridSort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	return em.HybS(s.Intensity, t, m)
}

// Sort implements Algorithm.
func (s *HybridSort) Sort(env *algo.Env, in, out storage.Collection) error {
	return s.sortWith(env, in, out, nil)
}

// sortWith is the HybS driver. Folding, Rs holds groups and Rr folds what
// Rs hands on: Rs's largest key only falls, so the two are disjoint by key
// and Rs's groups still come out first.
func (s *HybridSort) sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error {
	if err := checkArgs(env, in, out); err != nil {
		return err
	}
	if !(s.Intensity >= 0 && s.Intensity <= 1) {
		return fmt.Errorf("sorts: HybS intensity %v out of [0,1]", s.Intensity)
	}
	recSize := in.RecordSize()
	m := env.BudgetRecords(recSize)
	rsCap := int(s.Intensity * float64(m))
	if rsCap < 1 {
		rsCap = 1
	}
	rrCap := m - rsCap
	if rrCap < 1 {
		rrCap = 1
	}

	rs := newSelector(env, recSize, rsCap, combine) // Rs: the global minima so far
	rr := newRunFormer(env, "hybrun", recSize, rrCap, sampling(env, combine != nil), combine)
	sorted := false
	defer func() {
		// Error exit: sweep every run temp opened so far. Destroy is
		// idempotent, so runs already emptied or reclaimed by the merge
		// are safe to sweep again.
		if !sorted {
			destroyRuns(rr.runs)
		}
	}()

	// One selection pass leaves the |Rs| smallest records in Rs, sorted
	// and emitted first; what it turns away or displaces moves on to Rr.
	n, err := rs.pass(in, rr.add)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := out.Append(rs.rec(i)); err != nil {
			return err
		}
	}

	// Flush the replacement-selection region into its last runs.
	if err := rr.finish(); err != nil {
		return err
	}
	if err := mergeRuns(env, rr.runs, nil, out, recSize, combine); err != nil {
		return err
	}
	sorted = true
	return out.Close()
}
