package sorts

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// The folding intake is held to a map: whatever the arrival order, the
// budget and P, MergeInto emits one record per key, in key order, holding
// the combination of every partial appended under that key — and it
// writes no more than the plain intake fed the same records, exactly as
// much (byte for byte, counter for counter) when no key repeats, and no
// run at all when every group fits its slots.

// setPartial renders the test's partial aggregate — key, sum, count —
// into buf. The sum leads, so a combined partial's bytes order anywhere
// among its rows': a kernel that compared a folded group's bytes where it
// must compare its key (a selection bound) lets rows of an emitted group
// back in.
func setPartial(buf []byte, key, count, sum uint64) []byte {
	clear(buf)
	record.SetAttr(buf, 0, key)
	record.SetAttr(buf, 1, sum)
	record.SetAttr(buf, 2, count)
	return buf
}

// addPartials is the test's combine: counts and sums add.
func addPartials(dst, src []byte) {
	record.SetAttr(dst, 1, record.Attr(dst, 1)+record.Attr(src, 1))
	record.SetAttr(dst, 2, record.Attr(dst, 2)+record.Attr(src, 2))
}

// foldArrivals generate n arrival keys each: uniform over 500 groups;
// ascending and descending, a key's arrivals adjacent; block-clustered
// the way nested loops emit a join (ten blocks of 50 keys, each block's
// arrivals shuffled among its own keys); zipf-skewed; one group; and
// every key distinct.
var foldArrivals = []struct {
	name string
	keys func(n int) []uint64
}{
	{"uniform", func(n int) []uint64 {
		rng := testkit.NewRNG(0x9e3779b97f4a7c15)
		return arrivals(n, func(int) uint64 { return rng.Next() % 500 })
	}},
	{"sorted", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64(i * 500 / n) }) }},
	{"reverse", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64((n - 1 - i) * 500 / n) }) }},
	{"clustered", func(n int) []uint64 {
		rng := testkit.NewRNG(0x2545f4914f6cdd1d)
		return arrivals(n, func(i int) uint64 { return uint64(i*10/n)*50 + rng.Next()%50 })
	}},
	{"zipf", func(n int) []uint64 {
		z := rand.NewZipf(rand.New(rand.NewSource(3)), 1.2, 1, 999)
		return arrivals(n, func(int) uint64 { return z.Uint64() })
	}},
	{"single-group", func(n int) []uint64 { return arrivals(n, func(int) uint64 { return 7 }) }},
	{"all-distinct", func(n int) []uint64 { return arrivals(n, func(i int) uint64 { return uint64(i * 7919 % n) }) }},
}

func arrivals(n int, key func(i int) uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// runWatch counts the records appended to run-formation temps and
// counts, in every run and intermediate merge temp, the appends whose key
// does not ascend strictly — a fold that left a key resident twice, or a
// merge that did not combine. The counters are shared by every temp, and
// parallel merge workers append to theirs at once.
type runWatch struct {
	storage.Factory
	formed, repeats *atomic.Int64
}

func (f runWatch) Create(name string, recSize int) (storage.Collection, error) {
	c, err := f.Factory.Create(name, recSize)
	run := strings.Contains(name, ".run.")
	if err != nil || !(run || strings.Contains(name, ".merge.")) {
		return c, err
	}
	w := &watchedTemp{Collection: c, repeats: f.repeats}
	if run {
		w.formed = f.formed
	}
	return w, nil
}

type watchedTemp struct {
	storage.Collection
	formed, repeats *atomic.Int64
	last            uint64
	any             bool
}

func (c *watchedTemp) Append(rec []byte) error {
	if c.formed != nil {
		c.formed.Add(1)
	}
	if k := record.Key(rec); c.any && k <= c.last {
		c.repeats.Add(1)
	} else {
		c.last, c.any = k, true
	}
	return c.Collection.Append(rec)
}

// intakeRun is what one intake left: its output, the device's counters,
// the records its run formation wrote and the keys its runs and merge
// temps repeated.
type intakeRun struct {
	out               []byte
	stats             pmem.Stats
	formation, repeat int64
}

// runIntake pushes one partial per key into a plain or folding intake of
// budget records at parallelism par, on a fresh device, and merges it into
// a write-only sink — a fed consumer's destination, and serial for both
// kinds of intake, so their counters compare.
func runIntake(t *testing.T, keys []uint64, budget, par int, fold bool) intakeRun {
	t.Helper()
	base := newParEnv(t, budget, par)
	var formation, repeats atomic.Int64
	env := algo.NewParallelEnv(runWatch{Factory: base.Factory, formed: &formation, repeats: &repeats}, base.MemoryBudget, par)
	dev := base.Factory.Device()
	dst, err := base.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	var in *Intake
	if fold {
		in, err = NewIntake(env, record.Size, addPartials, false)
	} else {
		in, err = NewIntake(env, record.Size, nil, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, record.Size)
	for i, k := range keys {
		if err := in.Append(setPartial(buf, k, 1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.MergeInto(storage.NewSink("out", record.Size, dst.Append, dst.Close)); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if live := env.LiveTemps(); live != 0 {
		t.Fatalf("%d live temps after the merge", live)
	}
	out, err := storage.ReadAll(dst)
	if err != nil {
		t.Fatal(err)
	}
	return intakeRun{out: bytes.Join(out, nil), stats: st, formation: formation.Load(), repeat: repeats.Load()}
}

// foldReference is the map's answer: one partial per key, ascending.
func foldReference(keys []uint64) []byte {
	count, sum := map[uint64]uint64{}, map[uint64]uint64{}
	for i, k := range keys {
		count[k]++
		sum[k] += uint64(i)
	}
	distinct := make([]uint64, 0, len(count))
	for k := range count {
		distinct = append(distinct, k)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	var want bytes.Buffer
	buf := make([]byte, record.Size)
	for _, k := range distinct {
		want.Write(setPartial(buf, k, count[k], sum[k]))
	}
	return want.Bytes()
}

func TestFoldingIntakeMatchesMapReference(t *testing.T) {
	const n = 4000
	for _, arr := range foldArrivals {
		keys := arr.keys(n)
		want := foldReference(keys)
		groups := len(want) / record.Size
		for _, budget := range []int{1, n / 20, n} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/budget%d/p%d", arr.name, budget, par), func(t *testing.T) {
					folded, plain := runIntake(t, keys, budget, par, true), runIntake(t, keys, budget, par, false)
					if !bytes.Equal(folded.out, want) {
						t.Fatalf("folding intake emitted %d records, the map %d groups: contents differ", len(folded.out)/record.Size, groups)
					}
					if folded.repeat != 0 {
						t.Errorf("%d times a folding run or merge temp took a key it already held", folded.repeat)
					}
					if folded.stats.Writes > plain.stats.Writes {
						t.Errorf("folding intake wrote %d cachelines, the plain intake %d", folded.stats.Writes, plain.stats.Writes)
					}
					if arr.name == "all-distinct" {
						if !bytes.Equal(folded.out, plain.out) || folded.stats != plain.stats {
							t.Errorf("no key repeats, yet the folding intake differs from the plain one: counters %+v vs %+v", folded.stats, plain.stats)
						}
					}
					if budget >= groups && folded.formation != 0 {
						t.Errorf("%d slots hold all %d groups, yet run formation wrote %d partials", budget, groups, folded.formation)
					}
				})
			}
		}
	}
}

// foldKernelPartials is the allocation test's and the benchmark's input:
// kernelRecords partials over groups keys, uniform or in clustered blocks
// of the kernel budget's size.
func foldKernelPartials(groups int, clustered bool) [][]byte {
	rng := testkit.NewRNG(0x9e3779b97f4a7c15)
	recs := make([][]byte, kernelRecords)
	blocks := groups / kernelBudget
	for i := range recs {
		k := rng.Next() % uint64(groups)
		if clustered {
			k = uint64(i*blocks/kernelRecords)*kernelBudget + rng.Next()%kernelBudget
		}
		recs[i] = setPartial(make([]byte, record.Size), k, 1, uint64(i))
	}
	return recs
}

// foldAll pushes recs through a folding intake into a discarding sink and
// returns the groups it emitted.
func foldAll(t testing.TB, env *algo.Env, recs [][]byte) int {
	in, err := NewIntake(env, record.Size, addPartials, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := in.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	groups := 0
	if err := in.MergeInto(storage.NewSink("discard", record.Size, func([]byte) error { groups++; return nil }, nil)); err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestFoldingIntakeAllocs: what a folding intake allocates is per phase
// — the slab's and the key index's doublings, run and merge bookkeeping —
// never per record taken, folded or merged.
func TestFoldingIntakeAllocs(t *testing.T) {
	env := testkit.Env(t, "blocked", kernelDevice, kernelBudget)
	recs := foldKernelPartials(2*kernelBudget, false)
	keys := map[uint64]bool{}
	for _, rec := range recs {
		keys[record.Key(rec)] = true
	}
	groups := len(keys)
	allocs := testing.AllocsPerRun(3, func() {
		if got := foldAll(t, env, recs); got != groups {
			t.Fatalf("folding intake emitted %d groups, want %d", got, groups)
		}
	})
	if perRec := allocs / kernelRecords; perRec >= 0.01 {
		t.Fatalf("%.0f allocations folding %d partials into %d groups: %.4f per record, want 0", allocs, kernelRecords, groups, perRec)
	}
	t.Logf("%.0f allocations per %d-record, %d-group fold", allocs, kernelRecords, groups)
}

// BenchmarkFoldingIntake folds 60 k partials over 6 000 groups with a
// 3 000-slot budget: arriving uniformly half of them find their key
// resident; in blocks of 3 000 keys, the way nested loops emit a join,
// nearly all do. cl_writes/op is what the fold saves.
func BenchmarkFoldingIntake(b *testing.B) {
	for _, clustered := range []bool{false, true} {
		name := "uniform"
		if clustered {
			name = "clustered"
		}
		b.Run(name, func(b *testing.B) {
			env := testkit.Env(b, "blocked", kernelDevice, kernelBudget)
			recs := foldKernelPartials(2*kernelBudget, clustered)
			dev := env.Factory.Device()
			b.ReportAllocs()
			b.SetBytes(kernelRecords * record.Size)
			dev.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldAll(b, env, recs)
			}
			b.ReportMetric(float64(dev.Stats().Writes)/float64(b.N), "cl_writes/op")
		})
	}
}
