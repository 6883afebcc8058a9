package joins

import (
	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// NestedLoops is NLJ: block nested loops with an in-memory index per
// left-input block. It writes nothing but the output — the read-intensive
// floor the paper's write-limited algorithms approximate — at the price of
// one full scan of the right input per memory-sized block of the left.
//
// Under env.Parallelism > 1 each block's index build fans out to workers
// over contiguous chunks (sub-tables merged back into serial insertion
// order) and the right-input probe scans fan out over chunks with
// serial-identical emission order.
type NestedLoops struct{}

// NewNestedLoops returns the NLJ operator.
func NewNestedLoops() *NestedLoops { return &NestedLoops{} }

// Name implements Algorithm.
func (j *NestedLoops) Name() string { return cost.JoinNLJ }

// Join implements Algorithm.
func (j *NestedLoops) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	if err := blockNestedLoops(env, newWorkingSet(env, left, right, out), left, 0, right); err != nil {
		return err
	}
	return out.Close()
}

// Profile implements Algorithm.
func (j *NestedLoops) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile {
	return em.NLJ(t, v, m)
}

// blockNestedLoops is the one block-nested-loops loop: it joins left's
// records from position from on — NLJ's whole input, HybJ's T(1−x)
// suffix — with all of right, one memory-sized block of left at a time,
// each built into the working set's one table.
func blockNestedLoops(env *algo.Env, ws *workingSet, left storage.Collection, from int, right storage.Collection) error {
	capRecords := env.BudgetHashRecords(left.RecordSize())
	for lo := from; lo < left.Len(); lo += capRecords {
		block := storage.Slice(left, lo, min(lo+capRecords, left.Len()))
		if err := buildTableParallel(env, ws, []storage.Collection{block}, nil); err != nil {
			return err
		}
		if err := probeRange(env, ws, right, nil); err != nil {
			return err
		}
	}
	return nil
}
