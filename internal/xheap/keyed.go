package xheap

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Entry is one element of a Keyed tree: the record's 64-bit key, a
// caller-defined tie-break and the slab slot holding the record's bytes.
// It is two machine words on purpose — a replay moves entries, never
// records, and compares keys without touching the slab.
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
// record slots plus a tree of losers over them (Knuth, TAOCP vol. 3,
// §5.4.1), ordered by Before — its top is the least entry, or the
// greatest when built with max set. The slab is carved a segment at a
// time as slots are first used (never more than limit of them, never
// copied as it grows) and kept across Reset, so a phase that runs many
// passes allocates once and a pass that admits few records never pays
// for the whole budget.
//
// The slab is the leaf array: leaf i is slot i. Each internal node holds
// the entry that lost the match played there, inline, so ReplaceTop and
// Pop replay one leaf along a path whose addresses are known before the
// first compare: one 16-byte node per level, winner and loser picked
// with masks rather than branches. Push only appends (a slot and its
// 4-byte tie-break); the first Top, Pop or ReplaceTop builds the tree in
// O(n) from the slots' records, whose first eight bytes must be the key
// (little-endian, as record.Key reads it). A popped leaf becomes a
// sentinel that loses to every live entry. Bookkeeping is 20 bytes per
// slot beside the slab: the tie-breaks and the n-entry node array, which
// Sort reuses for its result.
//
// Slots are owned by the caller once carved: Pop hands the top's slot
// back without recycling it, ReplaceTop overwrites the top's slot in
// place, and Heapify adopts entries whose slots the caller already
// holds. That is what lets replacement selection move a record between
// its current-run tree and its next-run list without copying it.
type Keyed struct {
	nodes  []Entry    // built: [0] the winner, [p] the loser at internal node p (leaf i sits at n+i); sorted: the live entries
	segs   [][]byte   // the slab: segmentSlots record slots each, the last possibly fewer
	ties   [][]uint32 // beside each segment: its slots' tie-breaks as pushed, the first build's input
	size   int        // record size in bytes
	limit  int        // slots the slab may grow to
	carved int        // slots handed out since the last Reset: the tree's leaves
	live   int        // entries in the tree
	state  uint8
	flip   uint64 // all ones for a max tree: inverts the key comparison
}

// The tree's states: filling (Push appends, nothing built), built (a
// tree of losers over every carved leaf) and sorted (nodes[:live] in
// ascending order, no tree).
const (
	filling uint8 = iota
	built
	sorted
)

// noSlot marks a sentinel: a popped leaf, which loses every match it
// plays against a live entry. Slots are below the limit, so never it.
const noSlot = math.MaxUint32

// NewKeyed returns an empty tree over records of size bytes — at least
// the 8-byte key — holding at most limit of them (clamped to the slots a
// 32-bit number can name besides noSlot).
func NewKeyed(size, limit int, max bool) *Keyed {
	if size < 8 {
		panic("xheap: record size below the 8-byte key")
	}
	if limit < 1 {
		limit = 1
	}
	if uint64(limit) > noSlot {
		limit = noSlot
	}
	h := &Keyed{size: size, limit: limit}
	if max {
		h.flip = math.MaxUint64
	}
	return h
}

// Len reports the number of live entries.
func (h *Keyed) Len() int { return h.live }

// Limit reports the slot capacity.
func (h *Keyed) Limit() int { return h.limit }

// Full reports whether every slot has been carved since the last Reset.
// Push is legal only while it is false, and only before the tree is
// first used.
func (h *Keyed) Full() bool { return h.carved >= h.limit }

// segmentSlots is the slab's growth step, in record slots.
const segmentSlots = 256

// Record returns the bytes of a slot. The slice aliases the slab: it is
// valid until the slot is overwritten.
func (h *Keyed) Record(slot uint32) []byte {
	off := int(slot%segmentSlots) * h.size
	return h.segs[slot/segmentSlots][off : off+h.size : off+h.size]
}

// Items returns the live entries in ascending Before order after Sort,
// and nil before one.
func (h *Keyed) Items() []Entry {
	if h.state != sorted {
		return nil
	}
	return h.nodes
}

// Top returns the least entry (the greatest, for a max tree) without
// removing it. It panics on an empty tree.
func (h *Keyed) Top() Entry {
	if h.state != built || h.live == 0 {
		h.settle()
	}
	return h.nodes[0]
}

// Push carves a fresh slot, copies rec into it, adds its entry and
// returns the slot. key must be rec's first eight bytes, little-endian.
func (h *Keyed) Push(key uint64, tie uint32, rec []byte) uint32 {
	if h.Full() {
		panic("xheap: Keyed.Push beyond the slot limit")
	}
	if h.state != filling {
		panic("xheap: Keyed.Push after the tree was used; Reset first")
	}
	if key != binary.LittleEndian.Uint64(rec) {
		panic("xheap: Keyed.Push of a key that is not the record's first eight bytes")
	}
	slot := uint32(h.carved)
	h.carved++
	seg := int(slot / segmentSlots)
	if seg == len(h.segs) {
		n := min(segmentSlots, h.limit-int(slot))
		h.segs = append(h.segs, make([]byte, n*h.size))
		h.ties = append(h.ties, make([]uint32, n))
	}
	copy(h.Record(slot), rec)
	h.ties[seg][slot%segmentSlots] = tie
	h.live++
	return slot
}

// Pop removes and returns the top. Its slot stays carved and belongs to
// the caller; its leaf is a sentinel until Heapify or Reset. It panics
// on an empty tree.
func (h *Keyed) Pop() Entry {
	top := h.Top()
	h.live--
	h.replay(int(top.Slot), Entry{Key: ^h.flip, Slot: noSlot})
	return top
}

// ReplaceTop overwrites the top's record in place with rec (key its
// first eight bytes) and replays its leaf. Any view of the old top's
// bytes must have been consumed first. It panics on an empty tree.
func (h *Keyed) ReplaceTop(key uint64, tie uint32, rec []byte) {
	top := h.Top()
	copy(h.Record(top.Slot), rec)
	h.replay(int(top.Slot), Entry{key, tie, top.Slot})
}

// Heapify replaces the tree's contents with entries, whose slots must
// already be carved from this tree's slab and be distinct: every other
// carved leaf becomes a sentinel.
func (h *Keyed) Heapify(entries []Entry) {
	// The tie-breaks are the build's input only: here they name each
	// live leaf's entry (index+1; 0 a sentinel).
	for _, ties := range h.ties {
		clear(ties)
	}
	for i, e := range entries {
		h.ties[e.Slot/segmentSlots][e.Slot%segmentSlots] = uint32(i + 1)
	}
	h.live = len(entries)
	h.build(func(i int) Entry {
		if k := h.tie(i); k != 0 {
			return entries[k-1]
		}
		return Entry{Key: ^h.flip, Slot: noSlot}
	})
}

// Sort leaves Items holding the live entries in ascending Before order —
// a max tree's reverse pop order, the orientation the selection kernels
// drain — by an in-place MSD radix sort on the highest key byte that
// differs, finished by insertion sort. The result is no longer a tree:
// Reset or Heapify before the next use.
func (h *Keyed) Sort() {
	switch h.state {
	case filling:
		h.grow()
		for i := range h.nodes {
			h.nodes[i] = h.pushed(i)
		}
	case built:
		// Every live entry is the winner or exactly one node's loser.
		n := 0
		for _, e := range h.nodes {
			if e.Slot != noSlot {
				h.nodes[n] = e
				n++
			}
		}
		h.nodes = h.nodes[:n]
	default:
		return
	}
	h.state = sorted
	h.radixSort(h.nodes)
}

// Reset empties the tree and returns every slot, keeping the slab.
func (h *Keyed) Reset() {
	h.nodes = h.nodes[:0]
	h.carved, h.live, h.state = 0, 0, filling
}

// settle is Top's slow path: it builds a freshly filled tree and panics
// on an empty or sorted one.
func (h *Keyed) settle() {
	switch {
	case h.state == sorted:
		panic("xheap: Keyed used after Sort; Reset or Heapify first")
	case h.live == 0:
		panic("xheap: Top of an empty Keyed")
	case h.state == filling:
		h.build(h.pushed)
	}
}

// tie returns the tie-break array's word for slot i.
func (h *Keyed) tie(i int) uint32 { return h.ties[i/segmentSlots][i%segmentSlots] }

// pushed is slot i's entry as Push recorded it.
func (h *Keyed) pushed(i int) Entry {
	return Entry{binary.LittleEndian.Uint64(h.Record(uint32(i))), h.tie(i), uint32(i)}
}

// grow sizes nodes to one entry per carved leaf, allocating only when
// the leaves outgrow every earlier tree.
func (h *Keyed) grow() {
	if cap(h.nodes) < h.carved {
		h.nodes = make([]Entry, h.carved)
	}
	h.nodes = h.nodes[:h.carved]
}

// build plays every match once, bottom-up, over the carved leaves (leaf
// yields leaf i's entry): O(n) comparisons and no storage beyond the
// nodes and the tie-breaks, as each subtree's winner travels up the call
// stack.
func (h *Keyed) build(leaf func(i int) Entry) {
	h.grow()
	h.state = built
	if len(h.nodes) > 0 {
		h.nodes[0] = h.match(1, leaf)
	}
}

// match returns the winner of the subtree at position p, having left
// the loser of each of its internal nodes there.
func (h *Keyed) match(p int, leaf func(i int) Entry) Entry {
	n := len(h.nodes)
	if p >= n {
		return leaf(p - n)
	}
	a, b := h.match(2*p, leaf), h.match(2*p+1, leaf)
	if h.beats(b, a) {
		a, b = b, a
	}
	h.nodes[p] = b
	return a
}

// beats reports whether a wins its match against b: Before, inverted
// for a max tree, a sentinel losing to every live entry.
func (h *Keyed) beats(a, b Entry) bool {
	if ka, kb := a.Key^h.flip, b.Key^h.flip; ka != kb {
		return ka < kb
	}
	return h.beatsTie(a, b)
}

// beatsTie is beats on a key tie. The sentinel mark is checked before any
// record byte is read: a popped leaf's slot may already hold the
// caller's next record.
func (h *Keyed) beatsTie(a, b Entry) bool {
	if a.Slot == noSlot || b.Slot == noSlot {
		return b.Slot == noSlot && a.Slot != noSlot
	}
	if h.flip != 0 {
		a, b = b, a
	}
	return tieBefore(h.Record(a.Slot), a.Tie, h.Record(b.Slot), b.Tie)
}

// replay plays cur, leaf's new entry, against the loser stored at each
// node on the leaf's path to the root and leaves the winner on top. Which
// side wins a match is a coin flip the branch predictor cannot learn, so
// it is turned into a mask that swaps cur and the node with xors; only a
// key tie branches.
func (h *Keyed) replay(leaf int, cur Entry) {
	nodes := h.nodes
	flip := h.flip
	ck := cur.Key ^ flip
	for p := (len(nodes) + leaf) >> 1; p > 0; p >>= 1 {
		node := &nodes[p]
		n := *node
		nk := n.Key ^ flip
		var m uint64 // all ones when the node's entry beats cur
		if nk != ck {
			m = -b2u(nk < ck)
		} else {
			m = -b2u(h.beatsTie(n, cur))
		}
		dk := (n.Key ^ cur.Key) & m
		dt := (n.Tie ^ cur.Tie) & uint32(m)
		ds := (n.Slot ^ cur.Slot) & uint32(m)
		*node = Entry{n.Key ^ dk, n.Tie ^ dt, n.Slot ^ ds}
		cur = Entry{cur.Key ^ dk, cur.Tie ^ dt, cur.Slot ^ ds}
		ck ^= dk
	}
	nodes[0] = cur
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// insertionMax is the range below which radixSort hands over to
// insertion sort.
const insertionMax = 24

// radixSort orders es ascending by Before: an American-flag pass on the
// highest key byte in which es differ, recursing into each bucket, with
// ranges of one key left to insertion sort, or to a comparison sort when
// they are large.
func (h *Keyed) radixSort(es []Entry) {
	if len(es) <= insertionMax {
		h.insertionSort(es)
		return
	}
	var diff uint64
	for _, e := range es[1:] {
		diff |= e.Key ^ es[0].Key
	}
	if diff == 0 {
		slices.SortFunc(es, h.compareTie)
		return
	}
	shift := uint(bits.Len64(diff)-1) &^ 7
	var next, end [256]int32
	for _, e := range es {
		end[byte(e.Key>>shift)]++
	}
	sum := int32(0)
	for b, c := range end {
		next[b] = sum
		sum += c
		end[b] = sum
	}
	for b := range next {
		for next[b] < end[b] {
			// Carry es[next[b]] along its cycle until one that belongs
			// in bucket b comes back.
			e := es[next[b]]
			for d := byte(e.Key >> shift); int(d) != b; d = byte(e.Key >> shift) {
				es[next[d]], e = e, es[next[d]]
				next[d]++
			}
			es[next[b]] = e
			next[b]++
		}
	}
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			h.radixSort(es[lo:hi])
		}
		lo = hi
	}
}

func (h *Keyed) insertionSort(es []Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && h.before(e, es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// before is Before on two entries.
func (h *Keyed) before(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return tieBefore(h.Record(a.Slot), a.Tie, h.Record(b.Slot), b.Tie)
}

// compareTie orders two entries of one key by Before.
func (h *Keyed) compareTie(a, b Entry) int {
	if c := bytes.Compare(h.Record(a.Slot), h.Record(b.Slot)); c != 0 {
		return c
	}
	return cmp.Compare(a.Tie, b.Tie)
}
