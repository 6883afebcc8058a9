package pmem

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Allocator hands out byte ranges of a Device with first-fit placement and
// free-range coalescing.
//
// Allocation metadata lives in DRAM: a production persistent allocator
// would persist and recover it (cf. NV-heaps, Coburn et al., ASPLOS 2011),
// but the paper treats allocation persistence as orthogonal to query
// processing and so do we. What matters for the experiments is *where* data
// lands and how many cachelines each algorithm touches.
//
// The live allocations are two bitmaps over the managed range's
// cachelines: one marks each allocation's first line, the other its
// last. An allocation's size is the distance from its start bit to the
// next end bit, since allocations never overlap. The two cost a bit per
// line each: capacity/256 bytes.
type Allocator struct {
	dev *Device

	mu     sync.Mutex
	free   []span   // from head on: sorted by offset, pairwise non-adjacent
	head   int      // free[:head] are spans AllocAligned used up, reclaimed by FreeAll
	base   int64    // offset of line 0 of the bitmaps: the range's aligned start
	lines  int64    // lines in the range
	starts []uint64 // bit u: an allocation starts at line u
	ends   []uint64 // bit u: an allocation ends at line u (inclusive)
	live   int      // allocations
	align  int64    // allocation alignment (cacheline)
	shift  uint     // log2(align)
	used   int64    // bytes currently allocated
	peak   int64    // high-water mark

	// FreeAll's scratch, kept across calls so that dropping collections
	// allocates nothing in steady state.
	batch, merged []span
}

type span struct{ off, size int64 }

// NewAllocator manages the whole of dev.
func NewAllocator(dev *Device) *Allocator {
	return NewAllocatorRange(dev, 0, dev.Capacity())
}

// NewAllocatorRange manages the byte range [start, end) of dev; used by
// filesystem backends whose data area begins after their metadata regions.
func NewAllocatorRange(dev *Device, start, end int64) *Allocator {
	if start < 0 || end > dev.Capacity() || start >= end {
		panic(fmt.Sprintf("pmem: invalid allocator range [%d, %d) on device of %d bytes", start, end, dev.Capacity()))
	}
	align := int64(dev.CachelineSize())
	start = (start + align - 1) / align * align
	lines := max(end-start, 0) / align
	words := (lines + 63) / 64
	return &Allocator{
		dev:    dev,
		free:   []span{{start, end - start}},
		base:   start,
		lines:  lines,
		starts: make([]uint64, words),
		ends:   make([]uint64, words),
		align:  align,
		shift:  uint(bits.TrailingZeros64(uint64(align))),
	}
}

// markLocked records the allocation of need bytes at off.
func (a *Allocator) markLocked(off, need int64) {
	first := (off - a.base) >> a.shift
	last := first + need>>a.shift - 1
	a.starts[first>>6] |= 1 << (first & 63)
	a.ends[last>>6] |= 1 << (last & 63)
	a.live++
}

// sizeAtLocked reports the size of the allocation that starts at off,
// or false when none does (off is free, inside an allocation, or off the
// range).
func (a *Allocator) sizeAtLocked(off int64) (int64, bool) {
	rel := off - a.base
	if rel < 0 || rel&(a.align-1) != 0 || rel>>a.shift >= a.lines {
		return 0, false
	}
	first := rel >> a.shift
	if a.starts[first>>6]&(1<<(first&63)) == 0 {
		return 0, false
	}
	// The allocation's end bit is the first one at or after its start.
	w := first >> 6
	word := a.ends[w] &^ (1<<(first&63) - 1)
	for word == 0 {
		w++
		word = a.ends[w]
	}
	last := w<<6 + int64(bits.TrailingZeros64(word))
	return (last - first + 1) << a.shift, true
}

// unmarkLocked forgets the allocation of size bytes at off.
func (a *Allocator) unmarkLocked(off, size int64) {
	first := (off - a.base) >> a.shift
	last := first + size>>a.shift - 1
	a.starts[first>>6] &^= 1 << (first & 63)
	a.ends[last>>6] &^= 1 << (last & 63)
	a.live--
}

// Device returns the device this allocator manages.
func (a *Allocator) Device() *Device { return a.dev }

// Alloc reserves size bytes and returns the range's device offset. Ranges
// are cacheline-aligned so that distinct allocations never share a line
// (one allocation's writes must not wear another's lines).
func (a *Allocator) Alloc(size int64) (int64, error) {
	return a.AllocAligned(size, a.align)
}

// AllocAligned reserves size bytes at an offset that is a multiple of
// align. Filesystem backends use this to keep extents sector-aligned.
func (a *Allocator) AllocAligned(size, align int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("pmem: alloc size must be positive, got %d", size)
	}
	if align < a.align {
		align = a.align
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("pmem: alignment %d is not a power of two", align)
	}
	need := (size + a.align - 1) / a.align * a.align

	a.mu.Lock()
	defer a.mu.Unlock()
	for i := a.head; i < len(a.free); i++ {
		s := a.free[i]
		off := (s.off + align - 1) / align * align
		head := off - s.off
		if head+need > s.size {
			continue
		}
		tail := s.size - head - need
		switch {
		case head == 0 && tail == 0:
			// The spans before it move up one: first fit mostly uses up
			// the first span, which moves nothing, and never more spans
			// than the search has passed.
			copy(a.free[a.head+1:i+1], a.free[a.head:i])
			a.head++
		case head == 0:
			a.free[i] = span{off + need, tail}
		case tail == 0:
			a.free[i] = span{s.off, head}
		default:
			a.free[i] = span{s.off, head}
			a.free = append(a.free, span{})
			copy(a.free[i+2:], a.free[i+1:])
			a.free[i+1] = span{off + need, tail}
		}
		a.markLocked(off, need)
		a.used += need
		if a.used > a.peak {
			a.peak = a.used
		}
		return off, nil
	}
	return 0, fmt.Errorf("pmem: out of device memory: need %d bytes aligned to %d, %d in use of %d", need, align, a.used, a.dev.Capacity())
}

// Free releases a range previously returned by Alloc.
func (a *Allocator) Free(off int64) error {
	return a.FreeAll([]int64{off})
}

// FreeAll releases a batch of ranges previously returned by Alloc, in
// one pass over the free list: the batch is sorted and spliced into the
// window of free spans it touches, coalescing as it goes, so dropping a
// k-block collection costs O(k log k + |free list|) however its blocks
// interleave with other collections' — not one shifted insert per
// block. The resulting free list (and so every later first-fit
// placement) is exactly what k single frees would leave. An offset that
// is not a live allocation, or is named twice, fails the whole batch:
// nothing is freed on error.
func (a *Allocator) FreeAll(offs []int64) error {
	if len(offs) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	freed := a.batch[:0]
	for _, off := range offs {
		size, ok := a.sizeAtLocked(off)
		if !ok {
			return fmt.Errorf("pmem: free of unallocated offset %d", off)
		}
		freed = append(freed, span{off, size})
	}
	a.batch = freed
	slices.SortFunc(freed, func(x, y span) int { return cmp.Compare(x.off, y.off) })
	for i := 1; i < len(freed); i++ {
		if freed[i].off == freed[i-1].off {
			return fmt.Errorf("pmem: free of unallocated offset %d (named twice in one batch)", freed[i].off)
		}
	}

	// The free spans the batch can touch or interleave with: from the
	// first one ending at or after the batch's start to the last one
	// starting at or before its end.
	free := a.free[a.head:]
	last := freed[len(freed)-1]
	lo := sort.Search(len(free), func(i int) bool { return free[i].off+free[i].size >= freed[0].off })
	hi := sort.Search(len(free), func(i int) bool { return free[i].off > last.off+last.size })
	window := free[lo:hi]
	merged := a.merged[:0]
	for i, j := 0, 0; i < len(window) || j < len(freed); {
		var s span
		if j == len(freed) || (i < len(window) && window[i].off < freed[j].off) {
			s = window[i]
			i++
		} else {
			s = freed[j]
			j++
			a.unmarkLocked(s.off, s.size)
			a.used -= s.size
		}
		if n := len(merged); n > 0 && merged[n-1].off+merged[n-1].size == s.off {
			merged[n-1].size += s.size
		} else {
			merged = append(merged, s)
		}
	}
	a.merged = merged
	// The spans before the window move down over the used-up ones, and
	// the window's replacement is spliced in after them.
	start, end := a.head+lo, a.head+hi
	if a.head > 0 {
		start, a.head = copy(a.free, free[:lo]), 0
	}
	a.free = slices.Replace(a.free, start, end, merged...)
	return nil
}

// InUse reports the bytes currently allocated.
func (a *Allocator) InUse() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak reports the allocation high-water mark in bytes.
func (a *Allocator) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Allocations reports the number of live allocations.
func (a *Allocator) Allocations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}
