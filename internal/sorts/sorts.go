// Package sorts implements the paper's sorting algorithms (§2.1):
//
//   - ExMS — external mergesort with replacement-selection run formation,
//     the symmetric-I/O baseline
//   - SelS — multi-pass selection sort, the write-minimal building block
//     (one write per input record, quadratic reads)
//   - SegS — segment sort: an x-fraction of the input through external
//     mergesort, the rest through selection sort (§2.1.1, Eqs. 1–4)
//   - HybS — hybrid sort: memory split into a selection region and a
//     replacement-selection region (§2.1.2, Algorithm 1)
//   - LaS — lazy sort: repeated minimum extraction with cost-driven
//     intermediate-input materialization (§2.1.3, Algorithm 2, Eq. 5)
//   - Cycle — in-memory cycle sort, the write-optimality reference
//
// Every algorithm sorts a persistent collection of fixed-size records into
// an output collection, using at most the environment's DRAM budget M for
// working state and spilling runs through the environment's persistence
// layer.
package sorts

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/storage"
)

// Algorithm is a persistent-memory sort operator.
type Algorithm interface {
	// Name is the short identifier used in experiments ("ExMS", "SegS(0.2)"…).
	Name() string
	// Sort reads in and appends its records to out in ascending key
	// order. out must be empty and have the same record size as in.
	Sort(env *algo.Env, in, out storage.Collection) error
}

// checkArgs validates the common preconditions of all Sort calls.
func checkArgs(env *algo.Env, in, out storage.Collection) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if in == nil || out == nil {
		return fmt.Errorf("sorts: nil collection")
	}
	if in.RecordSize() != out.RecordSize() {
		return fmt.Errorf("sorts: record size mismatch: in %d, out %d", in.RecordSize(), out.RecordSize())
	}
	if out.Len() != 0 {
		return fmt.Errorf("sorts: output collection %q not empty", out.Name())
	}
	return nil
}
