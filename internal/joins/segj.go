package joins

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// SegmentedGrace is SegJ (§2.2.2): of the k partitions Grace join would
// create, only a fraction (the write intensity) is actually offloaded to
// persistent memory during the initial scan of both inputs. The
// materialized partitions are then joined Grace-style; every remaining
// partition is processed by re-scanning both inputs and filtering — reads
// traded for the writes that were never made (Eq. 9; Eq. 10 bounds when
// this beats plain Grace join). At intensity 1 every partition is
// materialized and the join is GJ's, I/O for I/O.
//
// Under env.Parallelism > 1 the offload scans, the hash-table builds
// (worker sub-tables merged back into serial insertion order), the
// materialized partitions' probes and the filtered re-scans all fan out
// to workers. Output order and I/O counts match the serial run.
type SegmentedGrace struct {
	// Intensity ∈ [0, 1] is the fraction of partitions materialized.
	Intensity float64
}

// NewSegmentedGrace returns SegJ with the given write intensity.
func NewSegmentedGrace(intensity float64) *SegmentedGrace {
	return &SegmentedGrace{Intensity: intensity}
}

// Name implements Algorithm.
func (j *SegmentedGrace) Name() string { return fmt.Sprintf("SegJ(%.2f)", j.Intensity) }

// Profile implements Algorithm.
func (j *SegmentedGrace) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile {
	return em.SegJ(j.Intensity, t, v, m)
}

// Join implements Algorithm.
func (j *SegmentedGrace) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	if !(j.Intensity >= 0 && j.Intensity <= 1) {
		return fmt.Errorf("joins: SegJ intensity %v out of [0,1]", j.Intensity)
	}
	k := partitionCount(env, left.Len(), left.RecordSize())
	x := int(j.Intensity * float64(k))
	ws := newWorkingSet(env, left, right, out)

	// Initial scan of both inputs offloading partitions 0..x-1 only,
	// then their Grace-style join.
	if x > 0 {
		if err := gracePhase(env, ws, left, right, k, x, nil); err != nil {
			return err
		}
	}

	// Remaining partitions: one filtered re-scan of both inputs each, into
	// the same table the materialized partitions used. Both the build
	// re-scan and the probe re-scan fan out over contiguous chunks of
	// their input; the build's worker vectors merge back into the serial
	// insertion (= emission) order.
	for p := x; p < k; p++ {
		inPart := func(rec []byte) bool { return partitionOf(rec, k) == p }
		if err := buildTableParallel(env, ws, []storage.Collection{left}, inPart); err != nil {
			return err
		}
		if err := probeRange(env, ws, right, inPart); err != nil {
			return err
		}
	}
	return out.Close()
}
