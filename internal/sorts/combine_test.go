package sorts

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// SortFolding is held to the map in every kernel: whatever the sort, the
// arrival order, the budget and P, out holds one partial per key in key
// order — the combination of every partial under that key — no temp
// survives, and the fold writes no more than the same sort of the same
// partials without a combine. SelS, whose passes select groups, writes
// the G groups and nothing else in ⌈G/M⌉ passes.

// combineArrivals are n arrival keys each: ascending and descending over
// 100 groups, a key's arrivals adjacent; cycling through 100 groups;
// scattered over 150; one key; and every key distinct.
var combineArrivals = []struct {
	name string
	keys func(n int) []uint64
}{
	{"sorted", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64(i * 100 / n) }) }},
	{"reverse", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64((n - 1 - i) * 100 / n) }) }},
	{"cyclic", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64(i % 100) }) }},
	{"scattered", func(n int) []uint64 {
		rng := testkit.NewRNG(0x9e3779b97f4a7c15)
		return arrivals(n, func(int) uint64 { return rng.Next() % 150 })
	}},
	{"one-key", func(n int) []uint64 { return arrivals(n, func(int) uint64 { return 7 }) }},
	{"all-distinct", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64(i * 7919 % n) }) }},
}

// foreignSort is a sort built the one way a caller outside this package
// can build one, by embedding a catalog sort: SortFolding folds through
// the driver it embeds.
type foreignSort struct{ Algorithm }

// combineSorts are the three drivers — SegS's (ExMS is SegS(1)), the
// lazy loop (SelS, LaS) and HybS's — and one caller's wrapper, of SegS(auto),
// whose knob SegS's driver places at Sort time.
func combineSorts() []Algorithm {
	return []Algorithm{
		NewExternalMergeSort(), NewSelectionSort(), NewLazySort(), NewSegmentSort(0.2), NewHybridSort(0.5),
		foreignSort{NewAutoSegmentSort()},
	}
}

// scanCounter counts the scans started on a collection: a selection
// sort's passes.
type scanCounter struct {
	storage.Collection
	n *int
}

func (c scanCounter) Scan() storage.Iterator { *c.n++; return c.Collection.Scan() }

// sortRun is what one sort of the partials left: its output, the device's
// counters over the sort and the scans it started on its input.
type sortRun struct {
	out   []byte
	stats pmem.Stats
	scans int
}

// smallEnv is a budget of budget records at parallelism par on a fresh
// device sized for the grid's thousand records, not the kernels' 60 000.
func smallEnv(t testing.TB, budget, par int) *algo.Env {
	t.Helper()
	return algo.NewParallelEnv(testkit.Factory(t, "blocked", pmem.Config{Capacity: 1 << 20}), int64(budget*record.Size), par)
}

// sortPartials sorts one partial per key with a, folding or plainly, in a
// budget of budget records at parallelism par, on a fresh device.
func sortPartials(t testing.TB, a Algorithm, keys []uint64, budget, par int, fold bool) sortRun {
	t.Helper()
	// A selection that let an emitted group back in would loop: the
	// deadline turns that into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env := smallEnv(t, budget, par).WithContext(ctx)
	in := loadPartials(t, env, keys)
	out, err := env.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	dev := env.Factory.Device()
	scans := 0
	dev.ResetStats()
	if fold {
		err = SortFolding(env, a, scanCounter{in, &scans}, out, addPartials)
	} else {
		err = a.Sort(env, scanCounter{in, &scans}, out)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if live := env.LiveTemps(); live != 0 {
		t.Fatalf("%d live temps after the sort", live)
	}
	recs, err := storage.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return sortRun{out: bytes.Join(recs, nil), stats: st, scans: scans}
}

// loadPartials writes one partial per key — count 1, the arrival
// position as its sum — to a fresh closed collection.
func loadPartials(t testing.TB, env *algo.Env, keys []uint64) storage.Collection {
	t.Helper()
	in, err := env.Factory.Create("partials", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, record.Size)
	for i, k := range keys {
		if err := in.Append(setPartial(buf, k, 1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// outputWrites is what appending recs to a fresh collection costs: the
// writes of a result alone.
func outputWrites(t testing.TB, recs []byte) uint64 {
	t.Helper()
	env := smallEnv(t, 1, 1)
	c, err := env.Factory.Create("copy", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(recs); off += record.Size {
		if err := c.Append(recs[off : off+record.Size]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return env.Factory.Device().Stats().Writes
}

func TestSortFoldingMatchesMapReference(t *testing.T) {
	const n = 1000
	for _, arr := range combineArrivals {
		keys := arr.keys(n)
		want := foldReference(keys)
		groups := len(want) / record.Size
		for _, budget := range []int{1, n / 20, n} {
			for _, par := range []int{1, 4} {
				for _, a := range combineSorts() {
					name := a.Name()
					if _, ok := a.(foreignSort); ok {
						name = "foreign"
					}
					t.Run(fmt.Sprintf("%s/budget%d/p%d/%s", arr.name, budget, par, name), func(t *testing.T) {
						folded := sortPartials(t, a, keys, budget, par, true)
						if !bytes.Equal(folded.out, want) {
							t.Fatalf("%d records out, the map has %d groups: contents differ", len(folded.out)/record.Size, groups)
						}
						if plain := sortPartials(t, a, keys, budget, par, false); folded.stats.Writes > plain.stats.Writes {
							t.Errorf("the fold wrote %d cachelines, the same sort without a combine %d", folded.stats.Writes, plain.stats.Writes)
						}
						if _, ok := a.(*SelectionSort); ok {
							if passes := (groups + budget - 1) / budget; folded.scans != passes {
								t.Errorf("%d passes over the input, want ⌈%d groups / %d slots⌉ = %d", folded.scans, groups, budget, passes)
							}
							if w := outputWrites(t, want); folded.stats.Writes != w {
								t.Errorf("wrote %d cachelines, the %d groups alone take %d", folded.stats.Writes, groups, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestSortFoldingAllocs: what a folding sort allocates is per phase —
// slabs, key indexes, iterators, run bookkeeping — never per record it
// scans, combines or merges.
func TestSortFoldingAllocs(t *testing.T) {
	keys := foldKernelKeys()
	for _, a := range []Algorithm{NewExternalMergeSort(), NewSelectionSort(), NewLazySort(), NewSegmentSort(0.2), NewHybridSort(0.5)} {
		t.Run(a.Name(), func(t *testing.T) {
			env := testkit.Env(t, "blocked", kernelDevice, kernelBudget)
			in := loadPartials(t, env, keys)
			i := 0
			allocs := testing.AllocsPerRun(3, func() {
				i++
				foldInto(t, env, a, in, fmt.Sprintf("out%d", i))
			})
			if perRec := allocs / kernelRecords; perRec >= 0.01 {
				t.Fatalf("%.0f allocations folding %d partials: %.4f per record, want 0", allocs, kernelRecords, perRec)
			}
			t.Logf("%.0f allocations per %d-record fold", allocs, kernelRecords)
		})
	}
}

// foldKernelKeys are kernelRecords arrivals over 2·kernelBudget groups:
// half of them find their group resident under uniform arrivals.
func foldKernelKeys() []uint64 {
	rng := testkit.NewRNG(0x9e3779b97f4a7c15)
	return arrivals(kernelRecords, func(int) uint64 { return rng.Next() % (2 * kernelBudget) })
}

// foldInto folds in with a into a fresh collection named name and
// destroys it.
func foldInto(t testing.TB, env *algo.Env, a Algorithm, in storage.Collection, name string) {
	out, err := env.Factory.Create(name, record.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := SortFolding(env, a, in, out, addPartials); err != nil {
		t.Fatal(err)
	}
	if err := out.Destroy(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSortFolding folds 60 k partials over 6 000 groups with a
// 3 000-slot budget in every driver; cl_writes/op is what each writes.
func BenchmarkSortFolding(b *testing.B) {
	keys := foldKernelKeys()
	for _, a := range []Algorithm{NewExternalMergeSort(), NewSelectionSort(), NewLazySort(), NewSegmentSort(0.2), NewHybridSort(0.5)} {
		b.Run(a.Name(), func(b *testing.B) {
			env := testkit.Env(b, "blocked", kernelDevice, kernelBudget)
			in := loadPartials(b, env, keys)
			dev := env.Factory.Device()
			b.ReportAllocs()
			b.SetBytes(kernelRecords * record.Size)
			dev.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldInto(b, env, a, in, fmt.Sprintf("out%d", i))
			}
			b.ReportMetric(float64(dev.Stats().Writes)/float64(b.N), "cl_writes/op")
		})
	}
}
