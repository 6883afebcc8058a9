package aggregate_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// foldSorts is every shipped sort, SegS across its whole intensity range
// (selection only, mixed, run formation only): each folds in a different
// kernel — a run formation and merge, a selection pass, a merge with a
// selection stream — and the combine must work inside all of them.
func foldSorts() []sorts.Algorithm {
	return []sorts.Algorithm{
		sorts.NewExternalMergeSort(),
		sorts.NewSelectionSort(),
		sorts.NewSegmentSort(0),
		sorts.NewSegmentSort(0.5),
		sorts.NewSegmentSort(1),
		sorts.NewHybridSort(0.5),
		sorts.NewLazySort(),
	}
}

const foldAttr = 4

// foldInput generates n records over the given number of distinct keys
// and returns them with the byte-for-byte expected group-by result,
// computed the naive way: a map, then a sort of its keys.
func foldInput(n, keys int, seed int64) (recs [][]byte, want []byte) {
	type ref struct{ count, sum, min, max uint64 }
	rng := rand.New(rand.NewSource(seed))
	groups := make(map[uint64]*ref)
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(keys)) * 3
		v := uint64(rng.Intn(1000))
		rec := record.New(k)
		record.SetAttr(rec, foldAttr, v)
		recs = append(recs, rec)
		g := groups[k]
		if g == nil {
			g = &ref{min: v, max: v}
			groups[k] = g
		}
		g.count++
		g.sum += v
		g.min, g.max = min(g.min, v), max(g.max, v)
	}
	order := make([]uint64, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, k := range order {
		var rec [record.Size]byte // the group's result record: five slots, the rest zero
		g := groups[k]
		record.SetAttr(rec[:], aggregate.AttrGroupKey, k)
		record.SetAttr(rec[:], aggregate.AttrCount, g.count)
		record.SetAttr(rec[:], aggregate.AttrSum, g.sum)
		record.SetAttr(rec[:], aggregate.AttrMin, g.min)
		record.SetAttr(rec[:], aggregate.AttrMax, g.max)
		want = append(want, rec[:]...)
	}
	return recs, want
}

// load writes recs to a fresh closed collection.
func load(t testing.TB, env *algo.Env, name string, recs [][]byte) storage.Collection {
	t.Helper()
	c, err := env.Factory.Create(name, record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := c.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

func contents(t testing.TB, c storage.Collection) []byte {
	t.Helper()
	recs, err := storage.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(recs, nil)
}

// TestFoldMatchesMapReference is the fold's property test: group-by
// through every sort × budget ∈ {the smallest Env.Validate accepts, 5 %
// of the input, more than the input} over a duplicate-heavy and a
// single-group input equals the map reference byte for byte — and its
// cacheline writes lie between its output's and the same sort's into a
// plain collection minus the (|T| − |groups|) records that no longer
// reach the output, each to within one block of tail rounding: the fold
// saves at least what folding the sorted output would, more wherever a
// group is resident twice, and never the groups it must write.
func TestFoldMatchesMapReference(t *testing.T) {
	const n = 1200
	inputs := []struct {
		name string
		keys int
	}{{"duplicate-heavy", 40}, {"single-group", 1}}
	budgets := []struct {
		name  string
		bytes int64
	}{{"min", 1}, {"5pct", n * record.Size / 20}, {"all", 2 * n * record.Size}}
	for _, in := range inputs {
		recs, want := foldInput(n, in.keys, 11)
		groups := len(want) / record.Size
		for _, b := range budgets {
			for _, a := range foldSorts() {
				t.Run(fmt.Sprintf("%s/%s/%s", in.name, b.name, a.Name()), func(t *testing.T) {
					env := newEnv(t)
					env.MemoryBudget = b.bytes
					dev := env.Factory.Device()
					src := load(t, env, "in", recs)

					plain, err := env.Factory.Create("plain", record.Size)
					if err != nil {
						t.Fatal(err)
					}
					before := dev.Stats()
					if err := a.Sort(env, src, plain); err != nil {
						t.Fatal(err)
					}
					sortWrites := dev.Stats().Sub(before).Writes

					out, err := env.Factory.Create("out", record.Size)
					if err != nil {
						t.Fatal(err)
					}
					before = dev.Stats()
					if err := groupBy(env, a, src, foldAttr, out); err != nil {
						t.Fatal(err)
					}
					foldWrites := dev.Stats().Sub(before).Writes

					if !bytes.Equal(contents(t, out), want) {
						t.Fatalf("group-by output differs from the map reference (%d groups, want %d)", out.Len(), groups)
					}
					if live := env.LiveTemps(); live != 0 {
						t.Errorf("%d live temps after the run", live)
					}
					saved := int64(n-groups) * record.Size / pmem.DefaultCachelineSize
					output := int64(groups) * record.Size / pmem.DefaultCachelineSize
					block := int64(env.Factory.BlockSize() / pmem.DefaultCachelineSize)
					if lo, hi := output-block, int64(sortWrites)-saved+block; int64(foldWrites) < lo || int64(foldWrites) > hi {
						t.Errorf("sort wrote %d cachelines, fold %d: want %d..%d (the %d groups, at most the sort less the %d records not written)",
							sortWrites, foldWrites, lo, hi, groups, n-groups)
					}
				})
			}
		}
	}
}

// failAfter is a destination whose Append fails on the n-th record.
type failAfter struct {
	storage.Collection
	n   int
	err error
}

func (f *failAfter) Append(rec []byte) error {
	if f.n--; f.n < 0 {
		return f.err
	}
	return f.Collection.Append(rec)
}

// TestFoldSinkDestinationFailure: when the real output refuses a group
// mid-emit, the folding sort stops, that one error comes back unwrapped
// enough to match, and the sort's runs are gone.
func TestFoldSinkDestinationFailure(t *testing.T) {
	recs, _ := foldInput(1200, 40, 3)
	boom := errors.New("device full")
	for _, a := range foldSorts() {
		env := newEnv(t)
		env.MemoryBudget = 1200 * record.Size / 20
		src := load(t, env, "in", recs)
		out, err := env.Factory.Create("out", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		err = groupBy(env, a, src, foldAttr, &failAfter{Collection: out, n: 7, err: boom})
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want the destination's error", a.Name(), err)
		}
		if out.Len() != 7 {
			t.Errorf("%s: %d groups reached the destination before the failure, want 7", a.Name(), out.Len())
		}
		if live := env.LiveTemps(); live != 0 {
			t.Errorf("%s: %d runs survived the failed merge", a.Name(), live)
		}
	}
}

// BenchmarkGroupByFold is the star query's group-by stage on its own:
// 100 k × 80 B records in 10 k groups through SegS(0.9) at M = 90 KB.
// The sort writes the partials its memory could not fold and then the
// groups; the 100 k sorted records never reach the device.
func BenchmarkGroupByFold(b *testing.B) {
	const n, groups = 100000, 10000
	env := newEnv(b)
	env.MemoryBudget = 90 << 10
	dev := env.Factory.Device()
	rng := rand.New(rand.NewSource(1))
	in, err := env.Factory.Create("in", record.Size)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := record.New(uint64(rng.Intn(groups)))
		record.SetAttr(rec, foldAttr, uint64(i))
		if err := in.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		b.Fatal(err)
	}
	a := sorts.NewSegmentSort(0.9)
	b.ReportAllocs()
	b.SetBytes(n * record.Size)
	before := dev.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := env.Factory.Create(fmt.Sprintf("out%d", i), record.Size)
		if err != nil {
			b.Fatal(err)
		}
		if err := groupBy(env, a, in, foldAttr, out); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if out.Len() != groups {
			b.Fatalf("%d groups, want %d", out.Len(), groups)
		}
		if err := out.Destroy(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(dev.Stats().Sub(before).Writes)/float64(b.N), "cl-writes/op")
}
