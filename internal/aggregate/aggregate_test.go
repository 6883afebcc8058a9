package aggregate_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

func newEnv(t testing.TB) *algo.Env {
	t.Helper()
	dev := pmem.MustOpen(pmem.Config{Capacity: 64 << 20})
	f, err := all.New("blocked", dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return algo.NewEnv(f, 100*record.Size)
}

// groupBy is the group-by the engine runs over a stored input: a's sort
// of in's partials, combining equal keys, into out widened to result
// records.
func groupBy(env *algo.Env, a sorts.Algorithm, in storage.Collection, attr int, out storage.Collection) error {
	partials, err := aggregate.Partials(in, attr)
	if err != nil {
		return err
	}
	return sorts.SortFolding(env, a, partials, aggregate.Results(out), aggregate.Combine)
}

// TestPartialsReadLikeTheirInput: a scan of the partials view, whole or
// sliced, renders every row as its Singleton partial and costs exactly
// the device reads of the same scan of the rows; the view refuses writes.
func TestPartialsReadLikeTheirInput(t *testing.T) {
	env := newEnv(t)
	dev := env.Factory.Device()
	recs, _ := foldInput(1000, 40, 5)
	in := load(t, env, "in", recs)
	p, err := aggregate.Partials(in, foldAttr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != in.Len() || p.RecordSize() != aggregate.PartialSize {
		t.Fatalf("view of %d × %d B over %d rows", p.Len(), p.RecordSize(), in.Len())
	}
	for _, lo := range []int{0, 37} {
		scan := func(c storage.Collection) ([][]byte, uint64) {
			before := dev.Stats()
			var got [][]byte
			if err := env.Scan(storage.Slice(c, lo, c.Len()), func(rec []byte) error {
				got = append(got, bytes.Clone(rec))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return got, dev.Stats().Sub(before).Reads
		}
		rows, rowReads := scan(in)
		parts, partReads := scan(p)
		if partReads != rowReads {
			t.Errorf("from %d: partials read %d cachelines, the rows %d", lo, partReads, rowReads)
		}
		want := make([]byte, aggregate.PartialSize)
		for i, row := range rows {
			aggregate.Singleton(want, row, foldAttr)
			if !bytes.Equal(parts[i], want) {
				t.Fatalf("from %d: partial %d is not its row's singleton", lo, i)
			}
		}
	}
	if p.Append(make([]byte, aggregate.PartialSize)) == nil || p.Truncate() == nil || p.Destroy() == nil {
		t.Error("the partials view accepted a write")
	}
}

// TestFeedRendersLikePartials: rows appended through Feed reach its
// destination as exactly the partials the Partials view reads from them.
func TestFeedRendersLikePartials(t *testing.T) {
	env := newEnv(t)
	recs, _ := foldInput(300, 40, 7)
	dst, err := env.Factory.Create("fed", aggregate.PartialSize)
	if err != nil {
		t.Fatal(err)
	}
	feed := aggregate.Feed(dst, foldAttr)
	for _, rec := range recs {
		if err := feed.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := aggregate.Partials(load(t, env, "in", recs), foldAttr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(contents(t, dst), contents(t, p)) {
		t.Error("fed partials differ from the partials view of the same rows")
	}
}

type groupRef struct {
	count, sum, min, max uint64
}

func TestGroupByMatchesReference(t *testing.T) {
	for _, a := range []sorts.Algorithm{
		sorts.NewExternalMergeSort(),
		sorts.NewSegmentSort(0.3),
		sorts.NewLazySort(),
	} {
		env := newEnv(t)
		in, err := env.Factory.Create("in", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		ref := make(map[uint64]*groupRef)
		const attr = 4
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(100))
			rec := record.New(k)
			v := uint64(rng.Intn(1000))
			record.SetAttr(rec, attr, v)
			if err := in.Append(rec); err != nil {
				t.Fatal(err)
			}
			g := ref[k]
			if g == nil {
				g = &groupRef{min: v, max: v}
				ref[k] = g
			}
			g.count++
			g.sum += v
			if v < g.min {
				g.min = v
			}
			if v > g.max {
				g.max = v
			}
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := env.Factory.Create("out", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := groupBy(env, a, in, attr, out); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if out.Len() != len(ref) {
			t.Fatalf("%s: %d groups, want %d", a.Name(), out.Len(), len(ref))
		}
		it := out.Scan()
		prev := int64(-1)
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			k := record.Attr(rec, aggregate.AttrGroupKey)
			if int64(k) <= prev {
				t.Fatalf("%s: groups out of order at key %d", a.Name(), k)
			}
			prev = int64(k)
			g := ref[k]
			if g == nil {
				t.Fatalf("%s: unexpected group %d", a.Name(), k)
			}
			if record.Attr(rec, aggregate.AttrCount) != g.count ||
				record.Attr(rec, aggregate.AttrSum) != g.sum ||
				record.Attr(rec, aggregate.AttrMin) != g.min ||
				record.Attr(rec, aggregate.AttrMax) != g.max {
				t.Fatalf("%s: group %d aggregates mismatch", a.Name(), k)
			}
		}
		it.Close()
	}
}

func TestGroupByValidation(t *testing.T) {
	env := newEnv(t)
	in, _ := env.Factory.Create("in", record.Size)
	out, _ := env.Factory.Create("out", record.Size)
	if err := groupBy(env, sorts.NewExternalMergeSort(), in, -1, out); err == nil {
		t.Error("negative attribute accepted")
	}
	if err := groupBy(env, sorts.NewExternalMergeSort(), in, record.NumAttrs, out); err == nil {
		t.Error("out-of-schema attribute accepted")
	}
	bad, _ := env.Factory.Create("bad", 16)
	if err := groupBy(env, sorts.NewExternalMergeSort(), bad, 1, out); err == nil {
		t.Error("wrong input record size accepted")
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	env := newEnv(t)
	in, _ := env.Factory.Create("in", record.Size)
	out, _ := env.Factory.Create("out", record.Size)
	if err := groupBy(env, sorts.NewLazySort(), in, 1, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty input produced %d groups", out.Len())
	}
}

// Property: group counts always sum to the input cardinality and every
// group key existed in the input.
func TestQuickGroupByTotals(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%500 + 1
		env := newEnv(t)
		in, err := env.Factory.Create("in", record.Size)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		keys := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(30))
			keys[k] = true
			if err := in.Append(record.New(k)); err != nil {
				return false
			}
		}
		if err := in.Close(); err != nil {
			return false
		}
		out, err := env.Factory.Create("out", record.Size)
		if err != nil {
			return false
		}
		if err := groupBy(env, sorts.NewSegmentSort(0.5), in, 2, out); err != nil {
			return false
		}
		total := uint64(0)
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
			if !keys[record.Attr(rec, aggregate.AttrGroupKey)] {
				return false
			}
			total += record.Attr(rec, aggregate.AttrCount)
		}
		return total == uint64(n) && out.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialWideningAllocs: a group leaves a fold as its result record —
// its partial's five slots, every other attribute zero — through the sink
// on the emit side (Results) and the iterator on a reader's (ResultsOf)
// alike, and widening allocates nothing per group: the sink's one buffer
// and the iterator's chunk buffer, grown to the largest chunk, are reused.
func TestPartialWideningAllocs(t *testing.T) {
	env := newEnv(t)
	recs, _ := foldInput(500, 500, 9)
	parts := make([][]byte, len(recs))
	var want []byte
	for i, rec := range recs {
		parts[i] = make([]byte, aggregate.PartialSize)
		aggregate.Singleton(parts[i], rec, foldAttr)
		want = append(want, parts[i]...)
		want = append(want, make([]byte, record.Size-aggregate.PartialSize)...)
	}

	dst, err := env.Factory.Create("results", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	sink := aggregate.Results(dst)
	if sink.RecordSize() != aggregate.PartialSize {
		t.Fatalf("the widening sink takes %d-byte records, want %d", sink.RecordSize(), aggregate.PartialSize)
	}
	for _, p := range parts {
		if err := sink.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if dst.Append(record.New(1)) == nil {
		t.Error("closing the widening sink left its destination open")
	}
	if !bytes.Equal(contents(t, dst), want) {
		t.Error("the sink's result records are not the partials widened")
	}
	discard := aggregate.Results(storage.NewSink("discard", record.Size, func([]byte) error { return nil }, nil))
	if allocs := testing.AllocsPerRun(5, func() {
		for _, p := range parts {
			if err := discard.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("the widening sink allocated %.0f times per %d partials", allocs, len(parts))
	}

	stored, err := env.Factory.Create("partials", aggregate.PartialSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := stored.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := stored.Close(); err != nil {
		t.Fatal(err)
	}
	it := aggregate.ResultsOf(stored.Scan())
	defer it.Close()
	chunks := storage.Chunked(it)
	got := make([]byte, 0, len(want))
	for _, n := range []int{1, 7, 64} {
		recs, err := chunks.NextChunk(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			got = append(got, rec...)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		recs, err := chunks.NextChunk(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			got = append(got, rec...)
		}
	}); allocs != 0 {
		t.Errorf("the widening iterator allocated %.0f times per chunk", allocs)
	}
	if !bytes.Equal(got, want[:len(got)]) {
		t.Error("the iterator's result records are not the partials widened")
	}
}
