package xheap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
		h.Push(uint64(i), 0, rec)
	}
	if got, want := slabBytes(h), 2*segmentSlots*testRecSize; got != want {
		t.Errorf("slab holds %d bytes after %d pushes under a 2^30 limit, want two segments = %d", got, used, want)
	}
	if got := cap(h.items); got > 2*used {
		t.Errorf("entry array holds %d entries after %d pushes", got, used)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		for i := 0; i < used; i++ {
			h.Push(uint64(i), 0, rec)
		}
	}); allocs != 0 {
		t.Errorf("refilling a warm slab allocated %.0f times", allocs)
	}
	small := NewKeyed(testRecSize, 3, false)
	for i := 0; i < 3; i++ {
		small.Push(uint64(i), 0, rec)
	}
	if got := slabBytes(small); got != 3*testRecSize {
		t.Errorf("3-slot heap carved %d bytes, want exactly %d", got, 3*testRecSize)
	}
	if got := cap(small.items); got != 3 {
		t.Errorf("3-slot heap holds room for %d entries, want 3", got)
	}
}
