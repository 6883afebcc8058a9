package xheap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

const testRecSize = 24 // key + one payload word + padding

func testRec(key, payload uint64) []byte {
	rec := make([]byte, testRecSize)
	binary.LittleEndian.PutUint64(rec, key)
	binary.LittleEndian.PutUint64(rec[8:], payload)
	return rec
}

type refRec struct {
	rec []byte
	tie uint32
}

func refBefore(a, b refRec) bool {
	return Before(binary.LittleEndian.Uint64(a.rec), a.rec, a.tie, binary.LittleEndian.Uint64(b.rec), b.rec, b.tie)
}

// randomRecs draws from tiny key and payload domains so duplicate keys
// and byte-identical records both occur.
func randomRecs(rng *rand.Rand, n int) []refRec {
	recs := make([]refRec, n)
	for i := range recs {
		recs[i] = refRec{testRec(uint64(rng.Intn(n/4+1)), uint64(rng.Intn(2))), uint32(i)}
	}
	return recs
}

func TestEntryIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("Entry is %d bytes, want 16", got)
	}
}

func TestBeforeOrder(t *testing.T) {
	a, b := testRec(1, 0), testRec(1, 1)
	for _, c := range []struct {
		name     string
		x, y     refRec
		want, eq bool
	}{
		{"key decides", refRec{testRec(0, 9), 9}, refRec{a, 0}, true, false},
		{"bytes break a key tie", refRec{a, 9}, refRec{b, 0}, true, false},
		{"tie-break breaks identical records", refRec{a, 1}, refRec{a, 2}, true, false},
		{"equal is not before", refRec{a, 1}, refRec{a, 1}, false, true},
	} {
		if got := refBefore(c.x, c.y); got != c.want {
			t.Errorf("%s: Before = %v, want %v", c.name, got, c.want)
		}
		if got := refBefore(c.y, c.x); got != (!c.want && !c.eq) {
			t.Errorf("%s: reverse Before = %v", c.name, got)
		}
	}
}

// popAll drains the heap through Pop, returning the records popped.
func popAll(h *Keyed) []refRec {
	var out []refRec
	for h.Len() > 0 {
		e := h.Pop()
		out = append(out, refRec{append([]byte(nil), h.Record(e.Slot)...), e.Tie})
	}
	return out
}

func sameSequence(t *testing.T, what string, got, want []refRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].rec, want[i].rec) || got[i].tie != want[i].tie {
			t.Fatalf("%s: position %d holds (key %d, tie %d), want (key %d, tie %d)", what, i,
				binary.LittleEndian.Uint64(got[i].rec), got[i].tie, binary.LittleEndian.Uint64(want[i].rec), want[i].tie)
		}
	}
}

func TestKeyedPopOrderBothOrientations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, max := range []bool{false, true} {
		recs := randomRecs(rng, 200)
		h := NewKeyed(testRecSize, len(recs), max)
		for _, r := range recs {
			h.Push(binary.LittleEndian.Uint64(r.rec), r.tie, r.rec)
		}
		if !h.Full() {
			t.Fatal("heap not full after limit pushes")
		}
		want := append([]refRec(nil), recs...)
		sort.Slice(want, func(i, j int) bool {
			if max {
				return refBefore(want[j], want[i])
			}
			return refBefore(want[i], want[j])
		})
		sameSequence(t, map[bool]string{false: "min-heap pops", true: "max-heap pops"}[max], popAll(h), want)
	}
}

// TestKeyedBoundedSelection is the selection kernel's use: a max-heap of
// the k smallest so far, ReplaceTop on every smaller arrival, Sort at the
// end — against sort.Slice.
func TestKeyedBoundedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 17, 199, 200, 201} {
		recs := randomRecs(rng, 200)
		h := NewKeyed(testRecSize, k, true)
		for _, r := range recs {
			key := binary.LittleEndian.Uint64(r.rec)
			if !h.Full() {
				h.Push(key, r.tie, r.rec)
			} else if top := h.Top(); Before(key, r.rec, r.tie, top.Key, h.Record(top.Slot), top.Tie) {
				h.ReplaceTop(key, r.tie, r.rec)
			}
		}
		h.Sort()
		var got []refRec
		for _, e := range h.Items() {
			got = append(got, refRec{h.Record(e.Slot), e.Tie})
		}
		want := append([]refRec(nil), recs...)
		sort.Slice(want, func(i, j int) bool { return refBefore(want[i], want[j]) })
		sameSequence(t, "k smallest", got, want[:min(k, len(want))])
	}
}

// TestKeyedHeapifyAdoptsSlots is replacement selection's use: popped
// entries keep their slots, are parked, and come back through Heapify
// without their records moving.
func TestKeyedHeapifyAdoptsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := randomRecs(rng, 64)
	h := NewKeyed(testRecSize, len(recs), false)
	for _, r := range recs {
		h.Push(binary.LittleEndian.Uint64(r.rec), r.tie, r.rec)
	}
	var parked []Entry
	for h.Len() > 0 {
		parked = append(parked, h.Pop())
	}
	rng.Shuffle(len(parked), func(i, j int) { parked[i], parked[j] = parked[j], parked[i] })
	h.Heapify(parked)
	want := append([]refRec(nil), recs...)
	sort.Slice(want, func(i, j int) bool { return refBefore(want[i], want[j]) })
	sameSequence(t, "pops after Heapify", popAll(h), want)
}

// TestKeyedCarvesLazily: the slab grows a segment at a time with the
// slots actually used — a heap under a huge limit that admits few
// records stays small — and survives Reset, so refilling it allocates
// nothing.
func TestKeyedCarvesLazily(t *testing.T) {
	const used = segmentSlots + 1
	slabBytes := func(h *Keyed) (n int) {
		for _, seg := range h.segs {
			n += len(seg)
		}
		return n
	}
	h := NewKeyed(testRecSize, 1<<30, true)
	rec := testRec(1, 1)
	for i := 0; i < used; i++ {
		h.Push(1, 0, rec)
	}
	if got, want := slabBytes(h), 2*segmentSlots*testRecSize; got != want {
		t.Errorf("slab holds %d bytes after %d pushes under a 2^30 limit, want two segments = %d", got, used, want)
	}
	h.Top()
	if got := cap(h.nodes); got != used {
		t.Errorf("node array holds %d entries over %d leaves", got, used)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		for i := 0; i < used; i++ {
			h.Push(1, 0, rec)
		}
		h.Top()
	}); allocs != 0 {
		t.Errorf("refilling a warm slab allocated %.0f times", allocs)
	}
	small := NewKeyed(testRecSize, 3, false)
	for i := 0; i < 3; i++ {
		small.Push(1, 0, rec)
	}
	if got := slabBytes(small); got != 3*testRecSize {
		t.Errorf("3-slot heap carved %d bytes, want exactly %d", got, 3*testRecSize)
	}
	small.Top()
	if got := cap(small.nodes); got != 3 {
		t.Errorf("3-slot heap holds room for %d entries, want 3", got)
	}
}

// keyModes draw record keys for TestKeyedMatchesReference: duplicate
// keys with byte-identical records, keys sharing their top byte (the
// radix sort skips it), one key for every record (its comparison-sort
// fallback) and full-width keys.
var keyModes = []struct {
	name string
	key  func(rng *rand.Rand) uint64
}{
	{"dups", func(rng *rand.Rand) uint64 { return uint64(rng.Intn(8)) }},
	{"shared-top-byte", func(rng *rand.Rand) uint64 { return 0x7f<<56 | uint64(rng.Intn(1<<12)) }},
	{"one-key", func(*rand.Rand) uint64 { return 42 }},
	{"wide", func(rng *rand.Rand) uint64 { return rng.Uint64() }},
}

// TestKeyedMatchesReference drives seeded random interleavings of Push,
// ReplaceTop, Pop (to empty, too), Heapify over a subset of the carved
// slots — popped ones whose records the caller has since overwritten
// among them, as the run former's rotate and finish adopt them — and
// Sort, against a slot → record map. Every Top must be the map's
// extreme record under Before, and Items after Sort the map's records
// in ascending order.
func TestKeyedMatchesReference(t *testing.T) {
	for _, max := range []bool{false, true} {
		for _, mode := range keyModes {
			for seed := int64(0); seed < 60; seed++ {
				t.Run(fmt.Sprintf("max=%v/%s/seed=%d", max, mode.name, seed), func(t *testing.T) {
					keyedAgainstReference(t, rand.New(rand.NewSource(seed)), max, mode.key)
				})
			}
		}
	}
}

func keyedAgainstReference(t *testing.T, rng *rand.Rand, max bool, key func(*rand.Rand) uint64) {
	limit := 1 + rng.Intn(300)
	h := NewKeyed(testRecSize, limit, max)
	live := map[uint32]refRec{} // the tree's entries by slot
	var parked []Entry          // popped slots, possibly refilled, for Heapify
	tie := uint32(0)
	draw := func() refRec {
		tie++
		return refRec{testRec(key(rng), uint64(rng.Intn(2))), tie % 5}
	}
	entry := func(slot uint32, r refRec) Entry {
		return Entry{binary.LittleEndian.Uint64(r.rec), r.tie, slot}
	}
	checkTop := func(op string) {
		t.Helper()
		if h.Len() != len(live) {
			t.Fatalf("after %s: Len = %d, want %d", op, h.Len(), len(live))
		}
		if len(live) == 0 {
			return
		}
		var want refRec
		first := true
		for _, r := range live {
			if first || refBefore(r, want) != max {
				want, first = r, false
			}
		}
		top := h.Top()
		got, ok := live[top.Slot]
		if !ok {
			t.Fatalf("after %s: Top names slot %d, which holds no live entry", op, top.Slot)
		}
		if !bytes.Equal(got.rec, want.rec) || got.tie != want.tie || top.Tie != want.tie ||
			top.Key != binary.LittleEndian.Uint64(want.rec) || !bytes.Equal(h.Record(top.Slot), want.rec) {
			t.Fatalf("after %s: Top = (key %d, tie %d), want (key %d, tie %d)", op,
				top.Key, top.Tie, binary.LittleEndian.Uint64(want.rec), want.tie)
		}
	}
	for fill := 1 + rng.Intn(limit); h.Len() < fill; {
		r := draw()
		live[h.Push(binary.LittleEndian.Uint64(r.rec), r.tie, r.rec)] = r
	}
	// No step sorts the pushed slots as they are; a few leave most of
	// them live for Sort or the pops.
	steps := []int{0, 20, 400}[rng.Intn(3)]
	for step := 0; step < steps; step++ {
		checkTop("step")
		switch op := rng.Intn(10); {
		case op < 4 && len(live) > 0:
			r := draw()
			slot := h.Top().Slot
			h.ReplaceTop(binary.LittleEndian.Uint64(r.rec), r.tie, r.rec)
			live[slot] = r
		case op < 8 && len(live) > 0:
			e := h.Pop()
			delete(live, e.Slot)
			if rng.Intn(2) == 0 { // the caller reuses the popped slot
				r := draw()
				copy(h.Record(e.Slot), r.rec)
				e = entry(e.Slot, r)
			}
			parked = append(parked, e)
		default:
			// Heapify over a random subset of the parked and live slots.
			var entries []Entry
			for _, e := range parked {
				if rng.Intn(4) != 0 {
					entries = append(entries, e)
				}
			}
			for slot, r := range live {
				if rng.Intn(4) != 0 {
					entries = append(entries, entry(slot, r))
				}
			}
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			h.Heapify(entries)
			clear(live)
			parked = parked[:0]
			for _, e := range entries {
				live[e.Slot] = refRec{append([]byte(nil), h.Record(e.Slot)...), e.Tie}
			}
		}
	}
	checkTop("the last step")
	want := make([]refRec, 0, len(live))
	for _, r := range live {
		want = append(want, r)
	}
	sort.Slice(want, func(i, j int) bool { return refBefore(want[i], want[j]) })
	if rng.Intn(2) == 0 {
		if max {
			slices.Reverse(want)
		}
		sameSequence(t, "pops to empty", popAll(h), want)
		return
	}
	h.Sort()
	var got []refRec
	for _, e := range h.Items() {
		if e.Key != binary.LittleEndian.Uint64(h.Record(e.Slot)) {
			t.Fatalf("sorted entry of slot %d carries key %d, its record %d", e.Slot, e.Key, binary.LittleEndian.Uint64(h.Record(e.Slot)))
		}
		got = append(got, refRec{h.Record(e.Slot), e.Tie})
	}
	sameSequence(t, "Items after Sort", got, want)
}

// The selection kernels' shape: a max tree of M = 3 000 records of 80
// bytes, the 5 % budget of a 60 000-record sort.
const (
	benchSlots   = 3000
	benchRecSize = 80
)

// benchRecs returns n records of benchRecSize bytes with random keys.
func benchRecs(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, benchRecSize)
		binary.LittleEndian.PutUint64(recs[i], rng.Uint64()>>16)
		binary.LittleEndian.PutUint64(recs[i][8:], uint64(i))
	}
	return recs
}

func fillKeyed(h *Keyed, recs [][]byte) {
	h.Reset()
	for i, r := range recs {
		h.Push(binary.LittleEndian.Uint64(r), uint32(i), r)
	}
}

// TestKeyedBookkeepingAllocs: beside its slab, a full M-slot tree
// allocates at most 20 bytes per slot — a 4-byte tie-break per slot and
// one 16-byte node per leaf, which Sort reuses — however it is used. The
// slab is measured as allocated (segments rounded to the allocator's size
// classes, and their header list) by carving a replica; the 2 KiB of
// slack covers the tie-breaks' header list, the Keyed itself and the node
// array's rounding to whole pages. An entry array grown by doubling
// would overshoot it ~25-fold. TotalAlloc is process-wide, so the
// runtime's own allocations land in the delta too; they only add bytes,
// while a regression allocates on every repetition, so the test bounds
// the smallest excess of three.
func TestKeyedBookkeepingAllocs(t *testing.T) {
	const reps, slack = 3, 2048
	recs := benchRecs(2 * benchSlots)
	best, bestSlab := -1, 0
	for rep := 0; rep < reps; rep++ {
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var replica [][]byte
		for carved := 0; carved < benchSlots; carved += segmentSlots {
			replica = append(replica, make([]byte, min(segmentSlots, benchSlots-carved)*benchRecSize))
		}
		runtime.ReadMemStats(&m1)
		h := NewKeyed(benchRecSize, benchSlots, true)
		fillKeyed(h, recs[:benchSlots])
		for i, r := range recs[benchSlots:] {
			if top := h.Top(); binary.LittleEndian.Uint64(r) < top.Key {
				h.ReplaceTop(binary.LittleEndian.Uint64(r), uint32(benchSlots+i), r)
			}
		}
		h.Sort()
		runtime.ReadMemStats(&m2)
		runtime.KeepAlive(replica)
		slab, got := int(m1.TotalAlloc-m0.TotalAlloc), int(m2.TotalAlloc-m1.TotalAlloc)
		if excess := got - slab; best < 0 || excess < best {
			best, bestSlab = excess, slab
		}
	}
	if perSlot := float64(best) / benchSlots; best > 20*benchSlots+slack {
		t.Fatalf("a full %d-slot tree allocated at least %d bytes beyond its %d-byte slab in each of %d runs: %.1f B per slot, want at most 20 (+%d B slack)",
			benchSlots, best, bestSlab, reps, perSlot, slack)
	} else {
		t.Logf("%d bytes beyond a %d-byte slab at best of %d: %.1f B per slot of bookkeeping", best, bestSlab, reps, perSlot)
	}
}

// BenchmarkKeyedReplaceTop is the selection pass's step on a full max
// tree: an arriving record smaller than the top replaces it. Each
// arrival's key is drawn uniformly below the top's, as a replacement's
// is on random input, and the tree is refilled before the keys shrink
// into collisions.
func BenchmarkKeyedReplaceTop(b *testing.B) {
	recs := benchRecs(benchSlots)
	h := NewKeyed(benchRecSize, benchSlots, true)
	fillKeyed(h, recs)
	h.Top() // builds the tree
	rng := rand.New(rand.NewSource(2))
	fracs := make([]float64, 4096)
	for i := range fracs {
		fracs[i] = rng.Float64()
	}
	rec := make([]byte, benchRecSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := h.Top().Key
		if top < 1<<32 {
			b.StopTimer()
			fillKeyed(h, recs)
			top = h.Top().Key
			b.StartTimer()
		}
		key := uint64(float64(top) * fracs[i%len(fracs)])
		binary.LittleEndian.PutUint64(rec, key)
		h.ReplaceTop(key, uint32(i), rec)
	}
}

// BenchmarkKeyedSort is the selection pass's finish: a full max tree's
// records in ascending order.
func BenchmarkKeyedSort(b *testing.B) {
	recs := benchRecs(benchSlots)
	h := NewKeyed(benchRecSize, benchSlots, true)
	fillKeyed(h, recs) // carves the slab
	h.Sort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillKeyed(h, recs)
		h.Top()
		b.StartTimer()
		h.Sort()
	}
}
