package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
)

// newCollection loads the values as the key attribute of benchmark
// records in the given order.
func newCollection(t *testing.T, name string, values []uint64) storage.Collection {
	t.Helper()
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	fac := blocked.New(dev, 0)
	c, err := fac.Create(name, record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := c.Append(record.New(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// shuffle permutes values deterministically (xorshift64), so the
// streaming collectors never see a conveniently sorted stream.
func shuffle(values []uint64) {
	rng := uint64(0x1234_5678_9abc_def1)
	for i := len(values) - 1; i > 0; i-- {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := rng % uint64(i+1)
		values[i], values[j] = values[j], values[i]
	}
}

// exactDistinct counts the ground truth.
func exactDistinct(values []uint64) int {
	seen := make(map[uint64]bool, len(values))
	for _, v := range values {
		seen[v] = true
	}
	return len(seen)
}

// exactFracLE is the ground-truth cumulative fraction.
func exactFracLE(sorted []uint64, v uint64) float64 {
	i := sort.Search(len(sorted), func(j int) bool { return sorted[j] > v })
	return float64(i) / float64(len(sorted))
}

// Error bounds documented in the package comment: KMV distinct estimates
// within 3σ ≈ 20% relative, histogram cumulative fractions within ±0.08
// absolute.
const (
	distinctRelBound = 0.20
	histAbsBound     = 0.08
)

// domains are the three key distributions of the satellite task: uniform
// permutation, zipf-like skew, and clustered (few dense value runs).
func domains() map[string][]uint64 {
	const n = 20000
	uniform := make([]uint64, n)
	for i := range uniform {
		uniform[i] = uint64(i)
	}
	// Zipf-like: value r (1-based rank) appears ~n/(2r) times, giving a
	// heavy head and a long tail of rare values.
	var zipf []uint64
	for r := uint64(1); len(zipf) < n; r++ {
		reps := n / (2 * int(r))
		if reps < 1 {
			reps = 1
		}
		for i := 0; i < reps && len(zipf) < n; i++ {
			zipf = append(zipf, r*1000)
		}
	}
	clustered := make([]uint64, n)
	for i := range clustered {
		clustered[i] = uint64(i / 40) // 500 clusters of 40 equal keys
	}
	out := map[string][]uint64{"uniform": uniform, "zipf": zipf, "clustered": clustered}
	for _, vals := range out {
		shuffle(vals)
	}
	return out
}

func TestDistinctEstimateWithinBound(t *testing.T) {
	for name, values := range domains() {
		tbl, err := Collect(newCollection(t, name, values))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Rows != len(values) {
			t.Fatalf("%s: rows %d, want %d", name, tbl.Rows, len(values))
		}
		want := exactDistinct(values)
		got := tbl.Col(0).Distinct
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if want <= SketchSize {
			if got != want {
				t.Errorf("%s: %d distinct values must be exact below the sketch size, got %d", name, want, got)
			}
		} else if relErr > distinctRelBound {
			t.Errorf("%s: distinct estimate %d vs actual %d (%.1f%% error > %.0f%% bound)",
				name, got, want, relErr*100, distinctRelBound*100)
		}
		t.Logf("%s: distinct est %d / actual %d", name, got, want)
	}
}

func TestHistogramCumulativeFractionWithinBound(t *testing.T) {
	for name, values := range domains() {
		tbl, err := Collect(newCollection(t, name, values))
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]uint64(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		col := tbl.Col(0)
		if col.Min != sorted[0] || col.Max != sorted[len(sorted)-1] {
			t.Fatalf("%s: bounds [%d, %d], want [%d, %d]", name, col.Min, col.Max, sorted[0], sorted[len(sorted)-1])
		}
		worst := 0.0
		for p := 1; p < 20; p++ { // probe the 5%…95% quantiles
			v := sorted[p*len(sorted)/20]
			got, want := col.FracLE(v), exactFracLE(sorted, v)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
			if math.Abs(got-want) > histAbsBound {
				t.Errorf("%s: FracLE(%d) = %.3f, actual %.3f (>±%.2f)", name, v, got, want, histAbsBound)
			}
		}
		t.Logf("%s: worst cumulative-fraction error %.3f", name, worst)
	}
}

func TestSelectivityEstimators(t *testing.T) {
	n := 1000
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i)
	}
	shuffle(values)
	tbl, err := Collect(newCollection(t, "sel", values))
	if err != nil {
		t.Fatal(err)
	}
	col := tbl.Col(0)
	if got, want := col.FracEq(500), 1.0/float64(n); math.Abs(got-want) > want/2 {
		t.Errorf("FracEq(500) = %v, want ~%v", got, want)
	}
	if got := col.FracEq(99999); got != 0 {
		t.Errorf("FracEq outside [min,max] = %v, want 0", got)
	}
	if got := col.FracLE(uint64(n)); got != 1 {
		t.Errorf("FracLE(max+) = %v, want 1", got)
	}
	if got := col.FracLT(0); got != 0 {
		t.Errorf("FracLT(min) = %v, want 0", got)
	}
	// A nil column (unknown table/attribute) estimates zero everywhere.
	var nilTbl *Table
	if nilTbl.Col(0) != nil {
		t.Error("nil table returned a column")
	}
	if nilTbl.Col(0).FracEq(1) != 0 || nilTbl.Col(0).FracLE(1) != 0 {
		t.Error("nil column estimators not zero")
	}
}

func TestCollectRejectsUnalignedRecords(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	fac := blocked.New(dev, 0)
	c, err := fac.Create("odd", 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(c); err == nil {
		t.Error("Collect accepted a 12-byte record size")
	}
	if _, err := Collect(nil); err == nil {
		t.Error("Collect accepted a nil collection")
	}
}

func TestCacheLifecycle(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5}
	c := newCollection(t, "life", values)

	auto := NewCache(true)
	tbl := auto.TableStats(c)
	if tbl == nil || tbl.Rows != 5 {
		t.Fatalf("auto-collect missed: %+v", tbl)
	}
	if auto.TableStats(c) != tbl {
		t.Error("fresh entry was re-collected instead of cached")
	}
	auto.Invalidate(c.Name())
	if auto.Lookup(c.Name()) != nil {
		t.Error("Invalidate left the entry behind")
	}

	manual := NewCache(false)
	if manual.TableStats(c) != nil {
		t.Error("manual cache collected without being asked")
	}
	if _, err := manual.Collect(c); err != nil {
		t.Fatal(err)
	}
	if manual.TableStats(c) == nil {
		t.Error("explicit Collect did not populate the cache")
	}
}

// TestStatsCacheConcurrent: one Cache is shared by every session of a
// System, so its lookups, collections and invalidations interleave.
// Each method runs in a goroutine of its own, so under -race nothing
// but that method's own locking orders its map accesses against the
// others'.
func TestStatsCacheConcurrent(t *testing.T) {
	const rounds = 50
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	fac := blocked.New(dev, 0)
	var colls []storage.Collection
	for i := 0; i < 2; i++ {
		c, err := fac.Create(fmt.Sprintf("conc%d", i), record.Size)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < 64; v++ {
			if err := c.Append(record.New(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	cache := NewCache(true)
	calls := []func(c storage.Collection){
		func(c storage.Collection) {
			if tbl := cache.TableStats(c); tbl == nil || tbl.Rows != 64 {
				t.Errorf("%s: TableStats = %+v, want 64 rows", c.Name(), tbl)
			}
		},
		func(c storage.Collection) {
			if _, err := cache.Collect(c); err != nil {
				t.Error(err)
			}
		},
		func(c storage.Collection) { cache.Invalidate(c.Name()) },
		func(c storage.Collection) { cache.Lookup(c.Name()) },
	}
	var wg sync.WaitGroup
	for _, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, c := range colls {
					call(c)
				}
			}
		}()
	}
	wg.Wait()
}

func TestTransforms(t *testing.T) {
	values := make([]uint64, 100)
	for i := range values {
		values[i] = uint64(i % 10)
	}
	tbl, err := Collect(newCollection(t, "tr", values))
	if err != nil {
		t.Fatal(err)
	}
	if d := tbl.Col(0).Distinct; d != 10 {
		t.Fatalf("distinct = %d, want exactly 10", d)
	}
	// WithRows clamps distinct counts to the new cardinality.
	if got := tbl.WithRows(4).Col(0).Distinct; got != 4 {
		t.Errorf("WithRows(4) distinct = %d, want 4", got)
	}
	// Project remaps columns; out-of-range projections are unknown.
	proj := tbl.Project([]int{3, 0})
	if proj == nil || proj.Col(1).Distinct != 10 {
		t.Fatalf("Project misplaced the key column: %+v", proj)
	}
	if tbl.Project([]int{99}) != nil {
		t.Error("out-of-schema projection produced statistics")
	}
	// Concat concatenates schemas and clamps to the joined cardinality.
	cat := Concat(tbl, tbl, 100)
	if cat == nil || len(cat.Cols) != 2*record.NumAttrs || cat.Col(record.NumAttrs).Distinct != 10 {
		t.Fatalf("Concat misshaped: %+v", cat)
	}
	if Concat(nil, tbl, 10) != nil || Concat(tbl, nil, 10) != nil {
		t.Error("Concat with an unknown side produced statistics")
	}
	var nilTbl *Table
	if nilTbl.WithRows(5) != nil || nilTbl.Project([]int{0}) != nil {
		t.Error("nil table transforms not nil")
	}
}

// TestRestrictPropagatesRangeBounds: restricting a uniform column to a
// sub-range tightens Min/Max, scales the distinct count by the surviving
// histogram mass, and re-bases the histogram so cumulative-fraction
// estimates describe the conditional distribution.
func TestRestrictPropagatesRangeBounds(t *testing.T) {
	const n = 8000
	values := make([]uint64, n) // keys 0..n-1, shuffled
	for i := range values {
		values[i] = uint64(i)
	}
	shuffle(values)
	c := newCollection(t, "restrict", values)
	tbl, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	half := tbl.Restrict(0, 0, n/2-1, n/2)
	col := half.Col(0)
	if col.Min != 0 || col.Max != n/2-1 {
		t.Fatalf("restricted bounds [%d, %d], want [0, %d]", col.Min, col.Max, n/2-1)
	}
	if d := float64(col.Distinct); d < 0.8*n/2 || d > 1.2*n/2 {
		t.Errorf("restricted distinct = %.0f, want ~%d (±20%%)", d, n/2)
	}
	// The restricted histogram must answer fractions of the *surviving*
	// rows: half the filtered domain is ~50%, not the base table's ~25%.
	if f := col.FracLE(n / 4); math.Abs(f-0.5) > 0.08 {
		t.Errorf("FracLE(n/4) over [0, n/2) = %.3f, want ~0.5", f)
	}
	// Values beyond the restriction are impossible.
	if f := col.FracEq(3 * n / 4); f != 0 {
		t.Errorf("FracEq outside the range = %v, want 0", f)
	}
	// Other columns are untouched beyond the distinct clamp.
	if other := half.Col(3); other.Min != tbl.Col(3).Min || other.Max != tbl.Col(3).Max {
		t.Error("Restrict touched an unrelated column's bounds")
	}

	// Empty intersection collapses the column to "nothing survives".
	empty := tbl.Restrict(0, uint64(n+100), uint64(n+200), 1)
	if col := empty.Col(0); col.Distinct != 0 || col.FracLE(n) != 0 || col.FracEq(0) != 0 {
		t.Errorf("empty-range restriction still estimates rows: %+v", col)
	}
	// lo > hi is the explicit empty range.
	lohi := tbl.Restrict(0, 1, 0, 1)
	if col := lohi.Col(0); col.Distinct != 0 {
		t.Errorf("lo>hi restriction kept distinct = %d", col.Distinct)
	}

	// Nil-safety and out-of-schema attributes.
	var nilTbl *Table
	if nilTbl.Restrict(0, 0, 10, 5) != nil {
		t.Error("nil table Restrict not nil")
	}
	if tbl.Restrict(99, 0, 10, 5) == nil {
		t.Error("out-of-schema Restrict dropped the table")
	}
}
