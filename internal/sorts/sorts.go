// Package sorts implements the paper's sorting algorithms (§2.1) as one
// family, the way the paper derives them — each baseline runs as the
// degenerate setting of the write-limited algorithm built from it:
//
//   - SegS — segment sort: an x-fraction of the input through external
//     mergesort, the rest through selection sort (§2.1.1, Eqs. 1–4)
//   - ExMS — external mergesort with replacement-selection run formation,
//     the symmetric-I/O baseline: SegS's driver at x = 1 (§2.1.1)
//   - LaS — lazy sort: repeated minimum extraction with cost-driven
//     intermediate-input materialization (§2.1.3, Algorithm 2, Eq. 5)
//   - SelS — multi-pass selection sort, the write-minimal building block
//     (one write per input record, quadratic reads): LaS's loop under a
//     policy that never materializes, and SegS's x = 0 end (§2.1.1)
//   - HybS — hybrid sort: memory split into a selection region and a
//     replacement-selection region (§2.1.2, Algorithm 1)
//
// Every algorithm sorts a persistent collection of fixed-size records into
// an output collection, using at most the environment's DRAM budget M for
// working state and spilling runs through the environment's persistence
// layer. The catalog below is each algorithm's single declaration: the
// planner, the plan DSL and the CLIs name, build and price it from there.
//
// Aggregation (the paper's §6 outlook) is a parameter of the same three
// drivers — SegS's, the lazy loop's and HybS's: SortFolding sorts partial
// aggregates with a combine that every kernel applies wherever it holds
// equal keys, so a group-by writes no more than the same sort without one.
package sorts

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// Algorithm is a persistent-memory sort operator: one of the catalog's
// sorts, or a caller's type that embeds one. The family is closed — every
// member prices itself and runs its own driver, so every price the system
// prints is a member's Profile.
type Algorithm interface {
	// Name is the short identifier used in experiments ("ExMS", "SegS(0.2)"…).
	Name() string
	// Sort reads in and appends its records to out in ascending key
	// order. out must be empty and have the same record size as in.
	Sort(env *algo.Env, in, out storage.Collection) error
	// Profile is the predicted I/O for t input buffers with m buffers of
	// memory at write/read ratio λ, emitting as em describes: what the
	// planner, Explain and Fig. 12 price the algorithm at.
	Profile(em cost.Emit, t, m, lambda float64) cost.Profile
	// sortWith is the algorithm's driver: Sort when combine is nil, and
	// SortFolding's kernels otherwise.
	sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error
}

// catalog declares the shipped sorts under cost.BestSortPlanP's names.
var catalog = algo.Catalog[Algorithm]{Family: "sorts", Entries: []algo.Entry[Algorithm]{
	{Name: cost.SortExMS, New: func([]float64) Algorithm { return NewExternalMergeSort() }},
	{Name: cost.SortSelS, New: func([]float64) Algorithm { return NewSelectionSort() }},
	{Name: cost.SortLaS, New: func([]float64) Algorithm { return NewLazySort() }},
	{Name: cost.SortSegS, Knobs: 1, New: func(k []float64) Algorithm { return NewSegmentSort(k[0]) }},
	{Name: cost.SortHybS, Knobs: 1, New: func(k []float64) Algorithm { return NewHybridSort(k[0]) }},
}}

// New builds the sort the planner calls name, its knob (if it has one)
// taken from the front of knobs.
func New(name string, knobs ...float64) (Algorithm, error) { return catalog.New(name, knobs...) }

// Parse builds a sort from its DSL spelling: "ExMS", "SegS:0.4".
func Parse(s string) (Algorithm, error) { return catalog.Parse(s) }

// Spellings lists the DSL spellings Parse accepts.
func Spellings() []string { return catalog.Spellings() }

// SortFolding sorts in — partial aggregates keyed by their group — into
// out with a, combining the partials of equal keys (combine merges src
// into dst in place): out receives one record per key, ascending. Every
// sort combines inside its kernels — a parallel worker folds its own
// share, and the final merge, which folds, is serial.
func SortFolding(env *algo.Env, a Algorithm, in, out storage.Collection, combine func(dst, src []byte)) error {
	return a.sortWith(env, in, out, combine)
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
