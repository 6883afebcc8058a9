package sorts

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// SegmentSort is SegS (§2.1.1): the input is split into two segments. The
// first x·|T| records ("write intensity" x) are sorted with external
// mergesort's replacement-selection run formation; the remaining
// (1−x)·|T| records become a single long run via the write-minimal
// multi-pass selection sort. All runs are then merged. The selection
// segment participates in the final merge as a single streaming cursor,
// which keeps SegS's final merge serial even at P > 1 (parallelizing it
// would forfeit the segment's one-write-per-record property).
//
// x = 0 degenerates to selection sort (minimal writes), x = 1 to external
// mergesort (minimal response time under symmetric I/O) — ExMS is this
// driver at x = 1.
type SegmentSort struct {
	// Intensity is x ∈ [0, 1], unless Auto is set.
	Intensity float64
	// Auto places x at Sort time where the planner places SegS's knob
	// (cost.SegSKnob, serially and emitting as profiled) for |T|, M and λ.
	Auto bool
}

// NewSegmentSort returns SegS with a fixed write intensity.
func NewSegmentSort(x float64) *SegmentSort { return &SegmentSort{Intensity: x} }

// NewAutoSegmentSort returns SegS that places its knob via the cost model.
func NewAutoSegmentSort() *SegmentSort { return &SegmentSort{Auto: true} }

// Name implements Algorithm.
func (s *SegmentSort) Name() string {
	if s.Auto {
		return "SegS(auto)"
	}
	return fmt.Sprintf("SegS(%.2f)", s.Intensity)
}

// Profile implements Algorithm; an auto-placed knob is priced where Sort
// will place it.
func (s *SegmentSort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	x := s.Intensity
	if s.Auto {
		x = cost.SegSKnob(t, m, lambda, 1, cost.Emit{})
	}
	return em.SegS(x, t, m)
}

// Sort implements Algorithm.
func (s *SegmentSort) Sort(env *algo.Env, in, out storage.Collection) error {
	return s.sortWith(env, in, out, nil)
}

// sortWith is the SegS driver; a combine folds both segments and the merge.
func (s *SegmentSort) sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error {
	if err := checkArgs(env, in, out); err != nil {
		return err
	}
	x := s.Intensity
	if s.Auto {
		bufs := float64(env.MemoryBudget) / float64(env.Factory.BlockSize())
		t := float64(in.Len()*in.RecordSize()) / float64(env.Factory.BlockSize())
		x = cost.SegSKnob(t, bufs, env.Lambda(), 1, cost.Emit{})
	}
	if !(x >= 0 && x <= 1) {
		return fmt.Errorf("sorts: SegS intensity %v out of [0,1]", x)
	}
	recSize := in.RecordSize()
	split := int(x * float64(in.Len()))

	// Segment 1: external mergesort run formation over the prefix,
	// fanned out to env.Parallelism workers over contiguous chunks.
	var runs []storage.Collection
	if split > 0 {
		r, err := formRuns(env, storage.Slice(in, 0, split), recSize, sampling(env, split < in.Len() || combine != nil), combine)
		if err != nil {
			return err
		}
		runs = r
	}

	// Segment 2: the suffix becomes a *streaming* sorted source — multi-
	// pass selection produces it lazily during the final merge, so each
	// of its records is written exactly once, at its final location in
	// the output. (Materializing it as a long run would forfeit the
	// algorithm's write savings: SegS writes ≈ (1+x)·|T| versus ExMS's
	// 2·|T|, the paper's 35%-fewer-writes headline at low intensity.)
	var streams []storage.Iterator
	if split < in.Len() {
		seg := storage.Slice(in, split, in.Len())
		streams = append(streams, newSelectionStream(env, seg, env.BudgetRecords(recSize), combine))
	}

	if err := mergeRuns(env, runs, streams, out, recSize, combine); err != nil {
		return err
	}
	return out.Close()
}

// ExternalMergeSort is ExMS: the paper's symmetric-I/O baseline, and
// segment sort's x = 1 end (§2.1.1): SegS's driver, no loop of its own. Run
// formation uses replacement selection (runs ≈ 2M); runs are merged in
// passes bounded by the memory budget's fan-in. Under env.Parallelism > 1
// run formation fans contiguous input chunks out to workers with per-worker
// budgets summing to M, intermediate merge passes merge their groups one
// at a time (the serial grouping, so a folding pass writes the same at
// every P), and the final merge into out splits the key domain across
// workers on splitters sampled from the runs (order-preserving, with
// output bytes and cacheline writes identical to the serial merge).
type ExternalMergeSort struct{}

// NewExternalMergeSort returns the ExMS operator.
func NewExternalMergeSort() *ExternalMergeSort { return &ExternalMergeSort{} }

// Name implements Algorithm.
func (s *ExternalMergeSort) Name() string { return cost.SortExMS }

// Sort implements Algorithm.
func (s *ExternalMergeSort) Sort(env *algo.Env, in, out storage.Collection) error {
	return s.sortWith(env, in, out, nil)
}

func (s *ExternalMergeSort) sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error {
	return NewSegmentSort(1).sortWith(env, in, out, combine)
}

// Profile implements Algorithm.
func (s *ExternalMergeSort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	return em.ExMS(t, m)
}
