package xheap

import "math/bits"

// Index maps keys to the Keyed slots holding them, for a caller whose
// resident records have distinct keys — a folding run formation looks an
// arriving key up before it takes a slot. It is open addressing with
// linear probing over 32-bit slot numbers, in a power-of-two table kept
// at most half full, with each slot's key beside it, so a probe compares
// keys without touching the slab. Like the slab, it grows with the slots
// actually indexed (doubling, at most log₂ limit times) and never
// shrinks: once every slot of a full heap is indexed, Find, Insert and
// Remove allocate nothing. Removal shifts the probe run back instead of
// leaving tombstones, so a long replacement-selection phase never
// degrades it. The zero value is an empty index.
type Index struct {
	table []uint32 // slot+1 at an occupied position, 0 at an empty one
	keys  []uint64 // keys[slot]: the key the slot is indexed under
	shift uint     // 64 − log₂ len(table): home keeps the hash's high bits
	used  int      // indexed slots
}

// minIndexTable keeps a small index from regrowing on its first inserts.
const minIndexTable = 64

func (x *Index) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// Find returns the slot indexed under key.
func (x *Index) Find(key uint64) (uint32, bool) {
	if x.used == 0 {
		return 0, false
	}
	mask := len(x.table) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		e := x.table[i]
		if e == 0 {
			return 0, false
		}
		if x.keys[e-1] == key {
			return e - 1, true
		}
	}
}

// Insert indexes slot under key. Neither may be indexed already.
func (x *Index) Insert(key uint64, slot uint32) {
	if 2*(x.used+1) > len(x.table) {
		x.grow()
	}
	for int(slot) >= len(x.keys) { // slots are carved in order: one step, amortized
		x.keys = append(x.keys, 0)
	}
	x.keys[slot] = key
	x.place(slot)
	x.used++
}

// place puts slot, whose key is recorded, at the first free position of
// its probe sequence.
func (x *Index) place(slot uint32) {
	mask := len(x.table) - 1
	i := x.home(x.keys[slot])
	for x.table[i] != 0 {
		i = (i + 1) & mask
	}
	x.table[i] = slot + 1
}

// Reset empties the index, keeping its table, as Keyed.Reset does.
func (x *Index) Reset() {
	clear(x.table)
	x.used = 0
}

// Remove drops slot, which must be indexed, from the index.
func (x *Index) Remove(slot uint32) {
	mask := len(x.table) - 1
	i := x.home(x.keys[slot])
	for x.table[i] != slot+1 {
		i = (i + 1) & mask
	}
	// Backward shift: an entry further along the run moves into the hole
	// when the hole lies between its home and where it sits, which keeps
	// every remaining key reachable from its home without a gap.
	for j := (i + 1) & mask; x.table[j] != 0; j = (j + 1) & mask {
		if h := x.home(x.keys[x.table[j]-1]); (j-h)&mask >= (j-i)&mask {
			x.table[i] = x.table[j]
			i = j
		}
	}
	x.table[i] = 0
	x.used--
}

// grow doubles the table and re-places every indexed slot.
func (x *Index) grow() {
	old := x.table
	width := uint(bits.Len(uint(max(2*len(old), minIndexTable) - 1)))
	x.table, x.shift = make([]uint32, 1<<width), 64-width
	for _, e := range old {
		if e != 0 {
			x.place(e - 1)
		}
	}
}
