package sorts

import (
	"fmt"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
)

// TestSortsReadInPlace holds every sort to the contract of blocked
// memory's in-place reads, at P = 1 and P = 4: the chunks a sort scans
// are device bytes, so it must never write through one — its input's
// hash is the same after the sort — and it must never read a temp it
// has dropped, which PoisonOnDestroy overwrites before freeing — its
// output is still every key in order.
func TestSortsReadInPlace(t *testing.T) {
	const n = 3000
	for _, p := range []int{1, 4} {
		for _, a := range allAlgorithms() {
			t.Run(fmt.Sprintf("P=%d/%s", p, a.Name()), func(t *testing.T) {
				f := storage.PoisonOnDestroy(blocked.New(pmem.MustOpen(pmem.Config{Capacity: sortDevice}), 0))
				env := algo.NewEnv(f, 200*record.Size) // M ≈ 6.7 % of the input
				env.Parallelism = p
				in := loadInput(t, env, n, 42)
				before := hashOf(t, in)
				out := runSort(t, env, a, in)
				if hashOf(t, in) != before {
					t.Errorf("%s wrote through a view of its input", a.Name())
				}
				checkSorted(t, a, out, n)
			})
		}
	}
}
