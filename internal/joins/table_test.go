package joins

import (
	"fmt"
	"testing"

	"wlpm/internal/record"
)

// tableKeys are the build-side key shapes the table must serve: every
// key once, and a small domain where each key's list is long.
var tableKeys = []struct {
	name string
	key  func(i int) uint64
}{
	{"unique", func(i int) uint64 { return uint64(i) * 7 }},
	{"dups", func(i int) uint64 { return uint64(i*i) % 53 }},
}

func fillTable(t *hashTable, n int, key func(i int) uint64) {
	rec := make([]byte, record.Size)
	for i := 0; i < n; i++ {
		record.Fill(rec, key(i))
		record.SetAttr(rec, 1, uint64(i)) // insertion position, to check match order
		t.insert(rec)
	}
}

// TestHashTableMatchesMapReference: against a map of insertion
// positions per key, a probe yields exactly that key's records in
// insertion order — through growth from the smallest table, after
// reset, and for keys that are absent.
func TestHashTableMatchesMapReference(t *testing.T) {
	const n = 5000
	for _, ks := range tableKeys {
		for _, hint := range []int{0, n} {
			tbl := newHashTable(record.Size, hint)
			for round := 0; round < 2; round++ { // the second round runs on reset arrays
				tbl.reset()
				fillTable(tbl, n, ks.key)
				want := map[uint64][]uint64{}
				for i := 0; i < n; i++ {
					want[ks.key(i)] = append(want[ks.key(i)], uint64(i))
				}
				if tbl.used != len(want) {
					t.Fatalf("%s hint=%d: %d occupied slots for %d distinct keys", ks.name, hint, tbl.used, len(want))
				}
				for k := uint64(0); k < 8*n; k++ {
					var got []uint64
					err := tbl.probe(k, func(build []byte) error {
						if record.Key(build) != k {
							return fmt.Errorf("probe of %d emitted a record keyed %d", k, record.Key(build))
						}
						got = append(got, record.Attr(build, 1))
						return nil
					})
					if err != nil {
						t.Fatalf("%s hint=%d: %v", ks.name, hint, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want[k]) {
						t.Fatalf("%s hint=%d round %d: key %d matched positions %v, want %v", ks.name, hint, round, k, got, want[k])
					}
				}
			}
		}
	}
}

// TestHashTableAllocBudget: a table sized for its input allocates
// nothing while it is filled, probed, reset and filled again — the
// per-key slices of the map it replaced were one allocation per
// distinct key.
func TestHashTableAllocBudget(t *testing.T) {
	const n = 4096
	for _, ks := range tableKeys {
		tbl := newHashTable(record.Size, n)
		matched := 0
		count := func([]byte) error { matched++; return nil }
		allocs := testing.AllocsPerRun(3, func() {
			tbl.reset()
			fillTable(tbl, n, ks.key)
			for k := uint64(0); k < n; k++ {
				tbl.probe(k, count) //nolint:errcheck // count never fails
			}
		})
		// fillTable's scratch record is the one allocation of a round.
		if allocs > 1 {
			t.Errorf("%s: %.0f allocations per build-and-probe round of %d records, want ≤ 1", ks.name, allocs, n)
		}
	}
}

// BenchmarkHashTableProbe times the NLJ/Grace inner loop: one probe per
// key of the build domain against a resident table, for both key shapes.
func BenchmarkHashTableProbe(b *testing.B) {
	const n = 10000
	for _, ks := range tableKeys {
		b.Run(ks.name, func(b *testing.B) {
			tbl := newHashTable(record.Size, n)
			fillTable(tbl, n, ks.key)
			matched := 0
			count := func([]byte) error { matched++; return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.probe(ks.key(i%n), count) //nolint:errcheck // count never fails
			}
			if b.N > 0 && matched == 0 {
				b.Fatal("no probe matched")
			}
		})
	}
}
