package xheap

import (
	"math/rand"
	"testing"
)

// TestIndexMatchesMapReference drives an Index the way a folding run
// formation does — slots taken in order until the heap is full, then a
// resident key's slot handed to a new key — against a map, over key
// domains narrow enough that probe runs collide and wrap, and wide
// enough that they rarely do. Every key the map holds must be found at
// its slot after each step, and a sample of absent keys must miss.
func TestIndexMatchesMapReference(t *testing.T) {
	for _, domain := range []uint64{300, 1 << 40} {
		for _, slots := range []int{1, 7, 200} {
			rng := rand.New(rand.NewSource(int64(slots)))
			var x Index
			ref := map[uint64]uint32{} // key → slot
			keyOf := make([]uint64, 0, slots)
			for step := 0; step < 5000; step++ {
				k := rng.Uint64() % domain
				if _, ok := ref[k]; ok {
					continue
				}
				if len(keyOf) < slots {
					slot := uint32(len(keyOf))
					keyOf = append(keyOf, k)
					x.Insert(k, slot)
					ref[k] = slot
				} else {
					slot := uint32(rng.Intn(slots))
					x.Remove(slot)
					delete(ref, keyOf[slot])
					keyOf[slot] = k
					x.Insert(k, slot)
					ref[k] = slot
				}
				for key, slot := range ref {
					if got, ok := x.Find(key); !ok || got != slot {
						t.Fatalf("domain %d slots %d step %d: Find(%d) = %d, %v; want slot %d", domain, slots, step, key, got, ok, slot)
					}
				}
				for i := 0; i < 8; i++ {
					miss := rng.Uint64() % domain
					if _, held := ref[miss]; held {
						continue
					}
					if got, ok := x.Find(miss); ok {
						t.Fatalf("domain %d slots %d step %d: Find(%d) = slot %d for a key never indexed there", domain, slots, step, miss, got)
					}
				}
			}
		}
	}
}
