package sorts

import (
	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// LazySort is LaS (§2.1.3, Algorithm 2). Each iteration scans the current
// input and extracts the next M smallest records into the output, paying
// repeated-read penalties instead of writes. Once the accumulated rescan
// penalty would exceed the cost of writing the remaining input (Eq. 5,
// n ≥ ⌊|T|λ/M(λ+1)⌋), the iteration materializes the surviving records as
// a fresh intermediate input and the algorithm reverts to being lazy.
//
// Note on Algorithm 2 as printed: line 9 appends only heap-displaced
// records to the intermediate input Ti, which would lose records that
// never entered the heap. The accompanying text ("the algorithm
// materializes the next input") requires Ti to hold every record that
// remains unsorted after the iteration, which is what this implementation
// does.
type LazySort struct{}

// NewLazySort returns the LaS operator.
func NewLazySort() *LazySort { return &LazySort{} }

// Name implements Algorithm.
func (s *LazySort) Name() string { return cost.SortLaS }

// Sort implements Algorithm.
func (s *LazySort) Sort(env *algo.Env, in, out storage.Collection) error {
	return s.sortWith(env, in, out, nil)
}

func (s *LazySort) sortWith(env *algo.Env, in, out storage.Collection, combine func(dst, src []byte)) error {
	return lazySort(env, in, out, cost.LazySortMaterializeIteration, combine, nil, -1)
}

// Profile implements Algorithm.
func (s *LazySort) Profile(em cost.Emit, t, m, lambda float64) cost.Profile {
	return em.LaS(t, m, lambda)
}

// lazySort is the one repeated-minimum-extraction loop. materializeAt
// says on which iteration over the current input (of remaining records,
// extracting budget per pass, at write/read ratio λ) the survivors are
// written out as the next input: LaS passes Eq. 5, SelS never does.
// Folding, every pass selects groups and Ti holds partials.
//
// opened, when set, is told in's length once the first pass has read it
// — before that pass's batch reaches out, or at once when in.Len() is 0
// — and says whether to go on; if not, lazySort returns errReopened
// having written nothing. in.Len() is then an upper bound (SortCounting),
// good for the emptiness check and the selector's 32-bit one.
//
// limit ≥ 0 is how many records the reader of out takes (SortTop): the
// selector holds at most that many and the loop stops once they are
// out, so a limit within the budget costs one pass, which still reads —
// and counts — the whole input; a limit of 0 runs none. limit < 0
// sorts the whole input. Only a policy that never materializes may be
// given opened or a limit.
func lazySort(env *algo.Env, in, out storage.Collection, materializeAt func(remaining, budget, lambda float64) int, combine func(dst, src []byte), opened func(rows int) bool, limit int) (err error) {
	if err := checkArgs(env, in, out); err != nil {
		return err
	}
	if opened != nil && in.Len() == 0 && !opened(0) {
		return errReopened
	}
	recSize := in.RecordSize()
	budget := env.BudgetRecords(recSize)
	if limit >= 0 {
		budget = min(budget, limit)
	}
	lambda := env.Lambda()

	cur := in                      // current input (in, or the latest materialized Ti)
	var curTemp storage.Collection // owned temp backing cur, nil when cur == in
	var ti storage.Collection      // this iteration's materialization target
	n := 1                         // iteration number on the current input (Algorithm 2's n)

	// One slab, and the bound the next pass resumes from, for every iteration.
	sel := newSelector(env, recSize, budget, combine)

	defer func() {
		// Error exit: reclaim whichever temps are still live. Destroy is
		// idempotent, so sweeping both is safe even when ti backs cur.
		if err != nil {
			destroyRuns([]storage.Collection{ti, curTemp})
		}
	}()

	for more := in.Len() > 0 && limit != 0; more; more = sel.more && limit != 0 {
		materialize := n >= materializeAt(float64(cur.Len()), float64(budget), lambda)

		ti = nil
		var onSurvivor func(rec []byte) error
		if materialize {
			t, err := env.CreateTemp("lazyin", recSize)
			if err != nil {
				return err
			}
			ti = t
			onSurvivor = func(rec []byte) error { return ti.Append(rec) }
		}
		selected, err := sel.pass(cur, onSurvivor)
		if err != nil {
			return err
		}
		if opened != nil {
			if !opened(sel.scanned) {
				return errReopened
			}
			opened = nil
		}
		if limit >= 0 { // what the reader still takes
			selected = min(selected, limit)
			limit -= selected
		}
		for i := 0; i < selected; i++ {
			if err := out.Append(sel.rec(i)); err != nil {
				return err
			}
		}

		if materialize {
			if err := ti.Close(); err != nil {
				return err
			}
			if curTemp != nil {
				if err := curTemp.Destroy(); err != nil {
					return err
				}
			}
			cur, curTemp = ti, ti
			sel.restart() // Ti holds exactly the unemitted records
			n = 1
			continue
		}
		n++
	}
	if curTemp != nil {
		if err := curTemp.Destroy(); err != nil {
			return err
		}
	}
	return out.Close()
}
