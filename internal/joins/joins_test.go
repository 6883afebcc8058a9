package joins

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

// joinDevice is the capacity of a join test's device: most joins here
// are at most 1 000 ⋈ 10 000 records, whose inputs, partitions and
// 160-byte output stay under 3 MB.
const joinDevice = 4 << 20

// largeJoinDevice is the capacity for the joins that outgrow it: the P
// grids' 4 000 ⋈ 20 000, the pinned counters' 2 000 ⋈ 10 000 on pmfs,
// three joins sharing one device, BenchmarkJoinCycle's 2 000 ⋈ 20 000
// outputs, and the property test's worst case,
// 300 ⋈ 600 rows on one key (28.8 MB of output).
const largeJoinDevice = 32 << 20

// loadJoinInputs creates the paper's join microbenchmark at the given
// scale: left with unique keys, right with fanOut matches per left key.
func loadJoinInputs(t testing.TB, env *algo.Env, nLeft, nRight int, seed uint64) (left, right storage.Collection) {
	t.Helper()
	l, err := env.Factory.Create(fmt.Sprintf("L%d", seed), record.Size)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.Factory.Create(fmt.Sprintf("R%d", seed), record.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.GenerateJoin(nLeft, nRight, seed, l.Append, r.Append); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return l, r
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		NewNestedLoops(),
		NewHash(),
		NewGrace(),
		NewHybridGraceNL(0.5, 0.5),
		NewHybridGraceNL(0.2, 0.8),
		NewHybridGraceNL(0.8, 0.2),
		NewHybridGraceNL(0, 0),
		NewHybridGraceNL(1, 1),
		NewHybridGraceNL(1, 0),
		NewSegmentedGrace(0),
		NewSegmentedGrace(0.5),
		NewSegmentedGrace(1),
		NewLazyHash(),
	}
}

// referenceJoin computes the expected multiset of joined pairs in memory.
func referenceJoin(t testing.TB, left, right storage.Collection) map[string]int {
	t.Helper()
	lrecs, err := storage.ReadAll(left)
	if err != nil {
		t.Fatal(err)
	}
	rrecs, err := storage.ReadAll(right)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[uint64][][]byte)
	for _, l := range lrecs {
		byKey[record.Key(l)] = append(byKey[record.Key(l)], l)
	}
	want := make(map[string]int)
	for _, r := range rrecs {
		for _, l := range byKey[record.Key(r)] {
			want[string(l)+string(r)]++
		}
	}
	return want
}

func collectOutput(t testing.TB, out storage.Collection) map[string]int {
	t.Helper()
	got := make(map[string]int)
	it := out.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got[string(rec)]++
	}
}

func runJoin(t testing.TB, env *algo.Env, a Algorithm, left, right storage.Collection) storage.Collection {
	t.Helper()
	out, err := env.CreateTemp("out", left.RecordSize()+right.RecordSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Join(env, left, right, out); err != nil {
		t.Fatalf("%s.Join: %v", a.Name(), err)
	}
	return out
}

func equalMultisets(t testing.TB, name string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct pairs, want %d", name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: pair count %d, want %d", name, got[k], c)
		}
	}
}

func TestAllAlgorithmsJoinMicrobenchmark(t *testing.T) {
	const nLeft, nRight = 400, 4000
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			env := testkit.Env(t, "blocked", joinDevice, 60) // M well below |T|
			left, right := loadJoinInputs(t, env, nLeft, nRight, 21)
			want := referenceJoin(t, left, right)
			out := runJoin(t, env, a, left, right)
			if out.Len() != nRight {
				t.Errorf("%s: %d output records, want %d", a.Name(), out.Len(), nRight)
			}
			equalMultisets(t, a.Name(), collectOutput(t, out), want)
		})
	}
}

func TestJoinAcrossBackends(t *testing.T) {
	const nLeft, nRight = 200, 1000
	for _, backend := range storage.Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, a := range []Algorithm{NewGrace(), NewHybridGraceNL(0.5, 0.5), NewSegmentedGrace(0.5), NewLazyHash()} {
				env := testkit.Env(t, backend, joinDevice, 50)
				left, right := loadJoinInputs(t, env, nLeft, nRight, 5)
				want := referenceJoin(t, left, right)
				out := runJoin(t, env, a, left, right)
				equalMultisets(t, backend+"/"+a.Name(), collectOutput(t, out), want)
			}
		})
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", joinDevice, 50)
		left, right := loadJoinInputs(t, env, 1, 0, 3)
		out := runJoin(t, env, a, left, right)
		if out.Len() != 0 {
			t.Errorf("%s: empty right produced %d records", a.Name(), out.Len())
		}
	}
}

func TestJoinNoMatches(t *testing.T) {
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", joinDevice, 50)
		left, err := env.Factory.Create("L", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		right, err := env.Factory.Create("R", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := left.Append(record.New(uint64(i))); err != nil {
				t.Fatal(err)
			}
			if err := right.Append(record.New(uint64(1000 + i))); err != nil {
				t.Fatal(err)
			}
		}
		out := runJoin(t, env, a, left, right)
		if out.Len() != 0 {
			t.Errorf("%s: disjoint keys produced %d records", a.Name(), out.Len())
		}
	}
}

func TestJoinSkewedDuplicates(t *testing.T) {
	// Both sides carry duplicate keys: output is a cross product per key.
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			env := testkit.Env(t, "blocked", joinDevice, 30)
			left, _ := env.Factory.Create("L", record.Size)
			right, _ := env.Factory.Create("R", record.Size)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 150; i++ {
				if err := left.Append(record.New(uint64(rng.Intn(10)))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				if err := right.Append(record.New(uint64(rng.Intn(10)))); err != nil {
					t.Fatal(err)
				}
			}
			want := referenceJoin(t, left, right)
			out := runJoin(t, env, a, left, right)
			equalMultisets(t, a.Name(), collectOutput(t, out), want)
		})
	}
}

func TestJoinArgumentValidation(t *testing.T) {
	env := testkit.Env(t, "blocked", joinDevice, 50)
	left, right := loadJoinInputs(t, env, 10, 20, 1)
	badOut, _ := env.Factory.Create("bad", record.Size+1) // neither concat nor projection
	if err := NewGrace().Join(env, left, right, badOut); err == nil {
		t.Error("wrong output record size accepted")
	}
	// The knobs are checked on an output the join could fill, so no other
	// argument is what refuses them; NaN passes a bare x < 0 || x > 1.
	out, _ := env.Factory.Create("out", 2*record.Size)
	nan := math.NaN()
	for _, a := range []Algorithm{
		NewHybridGraceNL(2, 0), NewHybridGraceNL(nan, 0.5), NewHybridGraceNL(0.5, nan),
		NewSegmentedGrace(-1), NewSegmentedGrace(nan),
	} {
		if err := a.Join(env, left, right, out); err == nil {
			t.Errorf("%s accepted", a.Name())
		}
	}
	if out.Len() != 0 {
		t.Errorf("a refused join wrote %d records", out.Len())
	}
}

// An output collection sized like the right input selects the projected
// result shape (the paper's materialized 80-byte result tuples).
func TestJoinProjectedOutput(t *testing.T) {
	const nLeft, nRight = 100, 1000
	for _, a := range allAlgorithms() {
		env := testkit.Env(t, "blocked", joinDevice, 30)
		left, right := loadJoinInputs(t, env, nLeft, nRight, 13)
		out, err := env.CreateTemp("proj", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Join(env, left, right, out); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if out.Len() != nRight {
			t.Fatalf("%s: %d projected matches, want %d", a.Name(), out.Len(), nRight)
		}
		// Every projected record must be a right-input record; the
		// multiset must match the right input exactly (10 matches each).
		got := collectOutput(t, out)
		want := make(map[string]int)
		rrecs, err := storage.ReadAll(right)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rrecs {
			want[string(r)]++
		}
		equalMultisets(t, a.Name()+" projection", got, want)
	}
}

// The paper's headline write behaviour: NLJ writes only the output; the
// write-limited joins write less than their symmetric-I/O counterparts;
// LaJ writes less than HJ; reads grow as writes shrink.
func TestJoinWriteProfileOrdering(t *testing.T) {
	const nLeft, nRight = 1000, 10000
	outLines := uint64(0)
	writes := map[string]uint64{}
	reads := map[string]uint64{}
	for _, a := range []Algorithm{NewNestedLoops(), NewHash(), NewGrace(), NewSegmentedGrace(0.5), NewLazyHash()} {
		env := testkit.Env(t, "blocked", joinDevice, 100)
		left, right := loadJoinInputs(t, env, nLeft, nRight, 31)
		dev := env.Factory.Device()
		dev.ResetStats()
		out := runJoin(t, env, a, left, right)
		st := dev.Stats()
		writes[a.Name()] = st.Writes
		reads[a.Name()] = st.Reads
		if out.Len() != nRight {
			t.Fatalf("%s: bad output size %d", a.Name(), out.Len())
		}
		outLines = uint64(out.Len()*out.RecordSize()) / uint64(dev.CachelineSize())
	}
	if writes["NLJ"] > outLines*110/100 {
		t.Errorf("NLJ wrote %d lines, want ≈ output footprint %d", writes["NLJ"], outLines)
	}
	if writes["LaJ"] >= writes["HJ"] {
		t.Errorf("LaJ writes %d not below HJ %d", writes["LaJ"], writes["HJ"])
	}
	if writes["SegJ(0.50)"] >= writes["GJ"] {
		t.Errorf("SegJ(0.5) writes %d not below GJ %d", writes["SegJ(0.50)"], writes["GJ"])
	}
	if reads["LaJ"] <= reads["GJ"] {
		t.Errorf("LaJ reads %d not above GJ %d (no write/read trade visible)", reads["LaJ"], reads["GJ"])
	}
}

// HybJ write intensity must modulate writes monotonically-ish: full Grace
// (1,1) writes more than half-and-half, which writes more than pure NL (0,0).
func TestHybridIntensityWriteKnob(t *testing.T) {
	const nLeft, nRight = 600, 3000
	w := func(x, y float64) uint64 {
		env := testkit.Env(t, "blocked", joinDevice, 60)
		left, right := loadJoinInputs(t, env, nLeft, nRight, 17)
		env.Factory.Device().ResetStats()
		runJoin(t, env, NewHybridGraceNL(x, y), left, right)
		return env.Factory.Device().Stats().Writes
	}
	w00, w55, w11 := w(0, 0), w(0.5, 0.5), w(1, 1)
	if !(w00 < w55 && w55 < w11) {
		t.Errorf("HybJ writes not ordered by intensity: (0,0)=%d (.5,.5)=%d (1,1)=%d", w00, w55, w11)
	}
}

// Property: random inputs with random knobs produce exactly the reference
// join result.
func TestQuickJoinersAreCorrect(t *testing.T) {
	algos := allAlgorithms()
	f := func(seed int64, budgetRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nL := int(nRaw)%300 + 1
		nR := rng.Intn(600) + 1
		budget := int(budgetRaw)%80 + 8
		a := algos[rng.Intn(len(algos))]
		env := testkit.Env(t, "blocked", largeJoinDevice, budget)
		left, _ := env.Factory.Create("L", record.Size)
		right, _ := env.Factory.Create("R", record.Size)
		domain := rng.Intn(100) + 1
		for i := 0; i < nL; i++ {
			if err := left.Append(record.New(uint64(rng.Intn(domain)))); err != nil {
				return false
			}
		}
		for i := 0; i < nR; i++ {
			if err := right.Append(record.New(uint64(rng.Intn(domain)))); err != nil {
				return false
			}
		}
		want := referenceJoin(t, left, right)
		out, err := env.CreateTemp("out", 2*record.Size)
		if err != nil {
			return false
		}
		if err := a.Join(env, left, right, out); err != nil {
			t.Logf("%s: %v", a.Name(), err)
			return false
		}
		got := collectOutput(t, out)
		if len(got) != len(want) {
			t.Logf("%s: %d distinct pairs, want %d", a.Name(), len(got), len(want))
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
