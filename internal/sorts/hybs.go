package sorts

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/xheap"
)

// HybridSort is HybS (§2.1.2, Algorithm 1). The memory budget is split
// into a selection region Rs (fraction x of M, the "write intensity") and
// a replacement-selection region Rr. Rs accumulates the globally smallest
// records — written exactly once, directly to the output — while Rr runs
// ordinary two-heap replacement selection over everything Rs displaces.
// The runs Rr produces are merged and appended after Rs's records.
//
// The pass that fills Rs and Rr is order-dependent (Rs tracks the global
// minima seen so far) and stays serial; under env.Parallelism > 1 the
// merging of Rr's runs fans merge groups out to workers, and the final
// merge appending after Rs's records splits the key domain across
// workers with byte-identical output.
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

// Sort implements Algorithm.
func (s *HybridSort) Sort(env *algo.Env, in, out storage.Collection) error {
	if err := checkArgs(env, in, out); err != nil {
		return err
	}
	if s.Intensity < 0 || s.Intensity > 1 {
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

	rs := xheap.NewKeyed(recSize, rsCap, true) // max-heap: the global minima so far
	rr := newRunFormer(env, "hybrun", recSize, rrCap)
	sorted := false
	defer func() {
		// Error exit: sweep every run temp opened so far. Destroy is
		// idempotent, so runs already emptied or reclaimed by the merge
		// are safe to sweep again.
		if !sorted {
			destroyRuns(rr.runs)
		}
	}()

	err := env.Scan(in, env.Polled(func(rec []byte) error {
		key := record.Key(rec)
		if !rs.Full() {
			rs.Push(key, 0, rec)
			return nil
		}
		top := rs.Top()
		if !xheap.Before(key, rec, 0, top.Key, rs.Record(top.Slot), 0) {
			return rr.add(rec)
		}
		// rec joins the global minima; the displaced maximum moves to the
		// replacement-selection region before its slot is overwritten.
		if err := rr.add(rs.Record(top.Slot)); err != nil {
			return err
		}
		rs.ReplaceTop(key, 0, rec)
		return nil
	}))
	if err != nil {
		return err
	}

	// Rs holds the global minimum |Rs| records: sort and emit them first.
	rs.Sort()
	for _, e := range rs.Items() {
		if err := out.Append(rs.Record(e.Slot)); err != nil {
			return err
		}
	}

	// Flush the replacement-selection region into its last runs.
	if err := rr.finish(); err != nil {
		return err
	}
	if err := mergeRuns(env, rr.runs, out, recSize); err != nil {
		return err
	}
	sorted = true
	return out.Close()
}
