package sorts

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// sortDevice is the capacity of a sort test's device: most inputs here
// are at most 8 000 records (640 KB), and their runs, merge outputs and
// output take no more than four times that at once.
const sortDevice = 4 << 20

// kernelDevice is the capacity for the tests over 20 000 to 60 000
// records (up to 4.8 MB of input): the kernels' allocation budgets, the
// P grids, concurrent sorts on one device and inode exhaustion.
const kernelDevice = 32 << 20

// loadInput creates a collection with n permuted-key records.
func loadInput(t testing.TB, env *algo.Env, n int, seed uint64) storage.Collection {
	t.Helper()
	in, err := env.Factory.Create(fmt.Sprintf("in-%d-%d", n, seed), record.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.Generate(n, seed, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		NewExternalMergeSort(),
		NewSelectionSort(),
		NewSegmentSort(0.2),
		NewSegmentSort(0.8),
		NewSegmentSort(0),
		NewSegmentSort(1),
		NewAutoSegmentSort(),
		NewHybridSort(0.2),
		NewHybridSort(0.8),
		NewLazySort(),
	}
}

// runSort executes a and returns the sorted output collection.
func runSort(t testing.TB, env *algo.Env, a Algorithm, in storage.Collection) storage.Collection {
	t.Helper()
	out, err := env.CreateTemp("out", in.RecordSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Sort(env, in, out); err != nil {
		t.Fatalf("%s.Sort: %v", a.Name(), err)
	}
	return out
}

// checkSorted verifies out is an ascending permutation of keys 0..n-1.
func checkSorted(t testing.TB, a Algorithm, out storage.Collection, n int) {
	t.Helper()
	if out.Len() != n {
		t.Fatalf("%s: output has %d records, want %d", a.Name(), out.Len(), n)
	}
	if err := verifySortedInvariant(out); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	it := out.Scan()
	defer it.Close()
	for i := 0; i < n; i++ {
		rec, err := it.Next()
		if err != nil {
			t.Fatalf("%s: Next #%d: %v", a.Name(), i, err)
		}
		if got := record.Key(rec); got != uint64(i) {
			t.Fatalf("%s: record %d has key %d", a.Name(), i, got)
		}
	}
}

func TestAllAlgorithmsSortPermutedInput(t *testing.T) {
	const n = 3000
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			env := testkit.Env(t, "blocked", sortDevice, 200) // M ≈ 6.7% of input
			in := loadInput(t, env, n, 42)
			out := runSort(t, env, a, in)
			checkSorted(t, a, out, n)
		})
	}
}

func TestSortAcrossBackends(t *testing.T) {
	const n = 1200
	for _, backend := range storage.Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, a := range []Algorithm{NewExternalMergeSort(), NewSegmentSort(0.5), NewHybridSort(0.5), NewLazySort()} {
				env := testkit.Env(t, backend, sortDevice, 150)
				in := loadInput(t, env, n, 7)
				out := runSort(t, env, a, in)
				checkSorted(t, a, out, n)
			}
		})
	}
}

func TestSortEmptyInput(t *testing.T) {
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", sortDevice, 64)
		in := loadInput(t, env, 0, 1)
		out := runSort(t, env, a, in)
		if out.Len() != 0 {
			t.Errorf("%s: empty input produced %d records", a.Name(), out.Len())
		}
	}
}

func TestSortSingleRecord(t *testing.T) {
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", sortDevice, 64)
		in := loadInput(t, env, 1, 1)
		out := runSort(t, env, a, in)
		checkSorted(t, a, out, 1)
	}
}

func TestSortInputFitsInMemory(t *testing.T) {
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", sortDevice, 1000)
		in := loadInput(t, env, 500, 3)
		out := runSort(t, env, a, in)
		checkSorted(t, a, out, 500)
	}
}

func TestSortTinyMemory(t *testing.T) {
	// Budget below one block still has to work (degenerate fan-in 2).
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", sortDevice, 8)
		in := loadInput(t, env, 300, 5)
		out := runSort(t, env, a, in)
		checkSorted(t, a, out, 300)
	}
}

func TestSortWithDuplicateKeys(t *testing.T) {
	const n = 2000
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			env := testkit.Env(t, "blocked", sortDevice, 100)
			in, err := env.Factory.Create("dups", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			hist := make(map[uint64]int)
			for i := 0; i < n; i++ {
				k := uint64(rng.Intn(50)) // heavy duplication
				hist[k]++
				if err := in.Append(record.New(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			out := runSort(t, env, a, in)
			if out.Len() != n {
				t.Fatalf("%s: %d records out, want %d", a.Name(), out.Len(), n)
			}
			if err := verifySortedInvariant(out); err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]int)
			it := out.Scan()
			for {
				rec, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got[record.Key(rec)]++
			}
			it.Close()
			for k, c := range hist {
				if got[k] != c {
					t.Fatalf("%s: key %d count %d, want %d", a.Name(), k, got[k], c)
				}
			}
		})
	}
}

func TestSortArgumentValidation(t *testing.T) {
	env := testkit.Env(t, "blocked", sortDevice, 100)
	in := loadInput(t, env, 10, 1)
	a := NewExternalMergeSort()

	out, _ := env.Factory.Create("nonempty", record.Size)
	if err := out.Append(record.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Sort(env, in, out); err == nil {
		t.Error("sort into non-empty output succeeded")
	}

	badEnv := algo.NewEnv(env.Factory, 0)
	out2, _ := env.Factory.Create("o2", record.Size)
	if err := a.Sort(badEnv, in, out2); err == nil {
		t.Error("sort with zero budget succeeded")
	}

	if err := NewSegmentSort(1.5).Sort(env, in, out2); err == nil {
		t.Error("SegS intensity 1.5 accepted")
	}
	if err := NewHybridSort(-0.1).Sort(env, in, out2); err == nil {
		t.Error("HybS intensity -0.1 accepted")
	}
	// NaN passes a bare x < 0 || x > 1.
	if err := NewSegmentSort(math.NaN()).Sort(env, in, out2); err == nil {
		t.Error("SegS intensity NaN accepted")
	}
	if err := NewHybridSort(math.NaN()).Sort(env, in, out2); err == nil {
		t.Error("HybS intensity NaN accepted")
	}
}

// The headline property of the paper: write-limited sorts write fewer
// cachelines than external mergesort; lazy sort has the minimal profile.
func TestWriteProfileOrdering(t *testing.T) {
	const n = 6000
	budget := 300 // 5% of input
	writes := map[string]uint64{}
	reads := map[string]uint64{}
	for _, a := range []Algorithm{NewExternalMergeSort(), NewSegmentSort(0.2), NewHybridSort(0.2), NewLazySort()} {
		env := testkit.Env(t, "blocked", sortDevice, budget)
		in := loadInput(t, env, n, 13)
		dev := env.Factory.Device()
		dev.ResetStats()
		out := runSort(t, env, a, in)
		st := dev.Stats()
		writes[a.Name()] = st.Writes
		reads[a.Name()] = st.Reads
		checkSorted(t, a, out, n)
	}
	if !(writes["LaS"] < writes["SegS(0.20)"] && writes["SegS(0.20)"] < writes["ExMS"]) {
		t.Errorf("write ordering violated: LaS=%d SegS=%d ExMS=%d",
			writes["LaS"], writes["SegS(0.20)"], writes["ExMS"])
	}
	if writes["HybS(0.20)"] >= writes["ExMS"] {
		t.Errorf("HybS writes %d not below ExMS %d", writes["HybS(0.20)"], writes["ExMS"])
	}
	if reads["LaS"] <= reads["ExMS"] {
		t.Errorf("LaS should trade writes for reads: reads %d vs ExMS %d", reads["LaS"], reads["ExMS"])
	}
}

// SelS writes each input record exactly once (§2.1.1): total cacheline
// writes must be close to the input footprint.
func TestSelectionSortMinimalWrites(t *testing.T) {
	const n = 2000
	env := testkit.Env(t, "blocked", sortDevice, 100)
	in := loadInput(t, env, n, 17)
	dev := env.Factory.Device()
	dev.ResetStats()
	out := runSort(t, env, NewSelectionSort(), in)
	checkSorted(t, NewSelectionSort(), out, n)
	st := dev.Stats()
	footprint := uint64(n*record.Size) / uint64(dev.CachelineSize())
	if st.Writes > footprint*110/100 {
		t.Errorf("SelS wrote %d cachelines, want ≤ 1.1× footprint %d", st.Writes, footprint)
	}
	if st.Reads < footprint*3 {
		t.Errorf("SelS reads %d suspiciously low for multi-pass selection (footprint %d)", st.Reads, footprint)
	}
}

// Property: every algorithm sorts arbitrary key multisets at arbitrary
// small budgets.
func TestQuickSortersAreCorrect(t *testing.T) {
	algos := allAlgorithms()
	f := func(seed int64, budgetRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%800 + 1
		budget := int(budgetRaw)%120 + 4
		a := algos[rng.Intn(len(algos))]
		env := testkit.Env(t, "blocked", sortDevice, budget)
		in, err := env.Factory.Create("q", record.Size)
		if err != nil {
			return false
		}
		want := make(map[uint64]int)
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(n))
			want[k]++
			if err := in.Append(record.New(k)); err != nil {
				return false
			}
		}
		if err := in.Close(); err != nil {
			return false
		}
		out, err := env.CreateTemp("qo", record.Size)
		if err != nil {
			return false
		}
		if err := a.Sort(env, in, out); err != nil {
			t.Logf("%s: %v", a.Name(), err)
			return false
		}
		if out.Len() != n || verifySortedInvariant(out) != nil {
			t.Logf("%s: bad output (len %d want %d)", a.Name(), out.Len(), n)
			return false
		}
		got := make(map[uint64]int)
		it := out.Scan()
		defer it.Close()
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got[record.Key(rec)]++
		}
		for k, c := range want {
			if got[k] != c {
				t.Logf("%s: key %d count %d want %d", a.Name(), k, got[k], c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// verifySortedInvariant checks that c is in ascending record order.
func verifySortedInvariant(c storage.Collection) error {
	it := c.Scan()
	defer it.Close()
	prev := make([]byte, 0, c.RecordSize())
	first := true
	idx := 0
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !first && record.Less(rec, prev) {
			return fmt.Errorf("sorts: output %q out of order at record %d", c.Name(), idx)
		}
		prev = append(prev[:0], rec...)
		first = false
		idx++
	}
}
