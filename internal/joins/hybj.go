package joins

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// HybridGraceNL is HybJ (§2.2.1): fractions x of the left input and y of
// the right are processed with Grace join (write-inducing but fast); the
// remainders are handled with read-only nested loops. The three partial
// results of the split are composed as:
//
//	Tx ⋈ Vy     — Grace join over the materialized partitions
//	Tx ⋈ V(1−y) — piggybacked: while partition p's table is in memory,
//	              the unpartitioned right suffix is scanned and probed
//	T(1−x) ⋈ V  — block nested loops over the left suffix and all of V
//
// x and y are the algorithm's write intensities (Eq. 6; Fig. 2 heatmaps).
// The first two are the shared Grace phase (gj.go) with a probe suffix,
// the third is NLJ's loop (nlj.go); with no left prefix (x·|T| < 1
// record) only the third runs and the join is NLJ's, I/O for I/O.
// Eq. 6's stationary point (Eqs. 7–8) is a saddle, and no (x, y) prices
// HybJ below both NLJ and GJ, so the planner never picks it: it runs
// pinned, its knobs placed by the caller.
//
// Under env.Parallelism > 1 the partitioning scans, the hash-table
// builds (worker sub-tables merged back into serial insertion order) and
// all three probe streams fan out to workers with serial-identical
// output order.
type HybridGraceNL struct {
	// X and Y are the Grace fractions of the left and right inputs.
	X, Y float64
}

// NewHybridGraceNL returns HybJ with fixed write intensities.
func NewHybridGraceNL(x, y float64) *HybridGraceNL { return &HybridGraceNL{X: x, Y: y} }

// Name implements Algorithm.
func (j *HybridGraceNL) Name() string { return fmt.Sprintf("HybJ(%.2f,%.2f)", j.X, j.Y) }

// Profile implements Algorithm.
func (j *HybridGraceNL) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile {
	return em.HybJ(j.X, j.Y, t, v, m)
}

// Join implements Algorithm.
func (j *HybridGraceNL) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	if !(j.X >= 0 && j.X <= 1 && j.Y >= 0 && j.Y <= 1) {
		return fmt.Errorf("joins: HybJ intensities (%v, %v) out of [0,1]", j.X, j.Y)
	}
	splitT := int(j.X * float64(left.Len()))
	splitV := int(j.Y * float64(right.Len()))
	ws := newWorkingSet(env, left, right, out)

	// Tx ⋈ Vy and Tx ⋈ V(1−y): the Grace phase over the prefixes, the
	// right suffix piggybacked onto each resident partition table.
	if splitT > 0 {
		k := partitionCount(env, splitT, left.RecordSize())
		tx, vy := storage.Slice(left, 0, splitT), storage.Slice(right, 0, splitV)
		if err := gracePhase(env, ws, tx, vy, k, k, storage.Slice(right, splitV, right.Len())); err != nil {
			return err
		}
	}
	// T(1−x) ⋈ V: block nested loops from the left suffix on, through
	// the table the Grace phase used.
	if err := blockNestedLoops(env, ws, left, splitT, right); err != nil {
		return err
	}
	return out.Close()
}
