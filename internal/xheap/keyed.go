package xheap

import (
	"bytes"
	"math"
)

// Entry is one element of a Keyed heap: the record's 64-bit key, a
// caller-defined tie-break and the slab slot holding the record's bytes.
// It is two machine words on purpose — sift steps move entries, never
// records, and compare keys without touching the slab.
type Entry struct {
	Key  uint64
	Tie  uint32
	Slot uint32
}

// Before reports whether record a (key ka, tie-break ta) precedes record
// b in the kernels' total order: key, then full record bytes, then
// tie-break. The key comparison inlines into the caller; record bytes are
// read only on a key tie.
func Before(ka uint64, a []byte, ta uint32, kb uint64, b []byte, tb uint32) bool {
	if ka != kb {
		return ka < kb
	}
	return tieBefore(a, ta, b, tb)
}

func tieBefore(a []byte, ta uint32, b []byte, tb uint32) bool {
	if c := bytes.Compare(a, b); c != 0 {
		return c < 0
	}
	return ta < tb
}

// Keyed is the working memory of a sort phase: one slab of fixed-size
// record slots plus a binary heap of Entries over them, ordered by
// Before — a min-heap, or a max-heap when built with max set. The slab
// is carved a segment at a time as slots are first used (never more than
// limit of them, never copied as it grows) and kept across Reset, so a
// phase that runs many passes allocates once and a pass that admits few
// records never pays for the whole budget.
//
// Slots are owned by the caller once carved: Pop hands the root's slot
// back without recycling it, ReplaceTop overwrites the root's slot in
// place, and Heapify adopts entries whose slots the caller already
// holds. That is what lets replacement selection move a record between
// its current-run heap and its next-run list without copying it.
type Keyed struct {
	items  []Entry
	segs   [][]byte // the slab: segmentSlots record slots each, the last possibly fewer
	size   int      // record size in bytes
	limit  int      // slots the slab may grow to
	carved int      // slots handed out since the last Reset
	flip   uint64   // all ones for a max-heap: inverts the key comparison
}

// NewKeyed returns an empty heap over records of size bytes holding at
// most limit of them (clamped to the 32-bit slot space).
func NewKeyed(size, limit int, max bool) *Keyed {
	if size <= 0 {
		panic("xheap: non-positive record size")
	}
	if limit < 1 {
		limit = 1
	}
	if uint64(limit) > math.MaxUint32 {
		limit = math.MaxUint32
	}
	h := &Keyed{size: size, limit: limit}
	if max {
		h.flip = math.MaxUint64
	}
	return h
}

// Len reports the number of entries in the heap.
func (h *Keyed) Len() int { return len(h.items) }

// Limit reports the slot capacity.
func (h *Keyed) Limit() int { return h.limit }

// Full reports whether every slot has been carved since the last Reset;
// Push is legal only while it is false.
func (h *Keyed) Full() bool { return h.carved >= h.limit }

// segmentSlots is the slab's growth step, in record slots.
const segmentSlots = 256

// Record returns the bytes of a slot. The slice aliases the slab: it is
// valid until the slot is overwritten.
func (h *Keyed) Record(slot uint32) []byte {
	off := int(slot%segmentSlots) * h.size
	return h.segs[slot/segmentSlots][off : off+h.size : off+h.size]
}

// Items exposes the entries in heap order (sorted after Sort).
func (h *Keyed) Items() []Entry { return h.items }

// Top returns the root without removing it. It panics on an empty heap.
func (h *Keyed) Top() Entry { return h.items[0] }

// Push carves a fresh slot, copies rec into it, adds its entry and
// returns the slot.
func (h *Keyed) Push(key uint64, tie uint32, rec []byte) uint32 {
	if h.Full() {
		panic("xheap: Keyed.Push beyond the slot limit")
	}
	slot := uint32(h.carved)
	h.carved++
	if int(slot/segmentSlots) == len(h.segs) {
		h.segs = append(h.segs, make([]byte, min(segmentSlots, h.limit-int(slot))*h.size))
	}
	copy(h.Record(slot), rec)
	if len(h.items) == cap(h.items) {
		// Doubling, capped at the limit: append's 1.25× steps would
		// allocate the entries several times over on the way up.
		grown := make([]Entry, len(h.items), min(max(2*cap(h.items), segmentSlots), h.limit))
		copy(grown, h.items)
		h.items = grown
	}
	h.items = append(h.items, Entry{key, tie, slot})
	h.up(len(h.items) - 1)
	return slot
}

// Pop removes and returns the root. Its slot stays carved and belongs to
// the caller. It panics on an empty heap.
func (h *Keyed) Pop() Entry {
	root := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 1 {
		h.down(0, last)
	}
	return root
}

// ReplaceTop overwrites the root's record in place with rec and restores
// heap order with a single sift. Any view of the old root's bytes must
// have been consumed first. It panics on an empty heap.
func (h *Keyed) ReplaceTop(key uint64, tie uint32, rec []byte) {
	slot := h.items[0].Slot
	copy(h.Record(slot), rec)
	h.items[0] = Entry{key, tie, slot}
	h.down(0, len(h.items))
}

// Heapify replaces the heap's contents with entries, whose slots must
// already be carved from this heap's slab.
func (h *Keyed) Heapify(entries []Entry) {
	h.items = append(h.items[:0], entries...)
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i, len(h.items))
	}
}

// Sort heapsorts Items in place into reverse pop order: ascending by
// Before for a max-heap, the orientation the selection kernels drain.
// The result is no longer a heap: Reset or Heapify before the next Push.
func (h *Keyed) Sort() {
	for n := len(h.items) - 1; n > 0; n-- {
		h.items[0], h.items[n] = h.items[n], h.items[0]
		h.down(0, n)
	}
}

// Reset empties the heap and returns every slot, keeping the slab.
func (h *Keyed) Reset() {
	h.items = h.items[:0]
	h.carved = 0
}

// less is the heap order: Before, inverted for a max-heap. The key
// comparison inlines into the sift loops; record bytes are touched only
// through lessTie.
func (h *Keyed) less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key^h.flip < b.Key^h.flip
	}
	return h.lessTie(a, b)
}

func (h *Keyed) lessTie(a, b Entry) bool {
	if h.flip != 0 {
		a, b = b, a
	}
	return tieBefore(h.Record(a.Slot), a.Tie, h.Record(b.Slot), b.Tie)
}

func (h *Keyed) up(i int) {
	x := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(x, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = x
}

// down sifts items[i] into place within items[:n].
func (h *Keyed) down(i, n int) {
	items := h.items[:n]
	flip := h.flip
	x := items[i]
	xk := x.Key ^ flip
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ck := items[child].Key ^ flip
		if right := child + 1; right < n {
			rk := items[right].Key ^ flip
			if rk == ck {
				if h.lessTie(items[right], items[child]) {
					child = right
				}
			} else {
				// Branch-free pick of the smaller child: which of two
				// siblings wins is a coin flip the predictor cannot learn.
				d := 0
				if rk < ck {
					d = 1
				}
				child += d
				ck = min(ck, rk)
			}
		}
		if ck > xk || (ck == xk && !h.lessTie(items[child], x)) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = x
}
