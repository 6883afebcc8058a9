package joins

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
)

// TestJoinsReadInPlace holds every join to the contract of blocked
// memory's in-place reads, at P = 1 and P = 4: the chunks a join scans
// are device bytes, so it must never write through one — both inputs
// hash the same after the join — and it must never read a partition or
// survivor temp it has dropped, which PoisonOnDestroy overwrites before
// freeing — its output is still the reference join's.
func TestJoinsReadInPlace(t *testing.T) {
	const nLeft, nRight, budget = 1000, 5000, 150
	for _, p := range []int{1, 4} {
		for _, a := range allAlgorithms() {
			t.Run(fmt.Sprintf("P=%d/%s", p, a.Name()), func(t *testing.T) {
				f := storage.PoisonOnDestroy(blocked.New(pmem.MustOpen(pmem.Config{Capacity: joinDevice}), 0))
				env := algo.NewEnv(f, budget*record.Size)
				env.Parallelism = p
				left, right := loadJoinInputs(t, env, nLeft, nRight, 3)
				want := referenceJoin(t, left, right)
				l, r := digest(t, left), digest(t, right)
				out := runJoin(t, env, a, left, right)
				if digest(t, left) != l || digest(t, right) != r {
					t.Errorf("%s wrote through a view of its input", a.Name())
				}
				equalMultisets(t, a.Name(), collectOutput(t, out), want)
			})
		}
	}
}

// digest is the FNV-64a hash of c's records in order.
func digest(t *testing.T, c storage.Collection) uint64 {
	t.Helper()
	recs, err := storage.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range recs {
		h.Write(r)
	}
	return h.Sum64()
}
