package pmem

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	d := testDevice(t, 4096)
	a := NewAllocator(d)
	off1, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	off2, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if off1 == off2 {
		t.Fatal("two allocations share an offset")
	}
	if off1%int64(d.CachelineSize()) != 0 || off2%int64(d.CachelineSize()) != 0 {
		t.Error("allocations not cacheline-aligned")
	}
	if a.Allocations() != 2 {
		t.Errorf("Allocations = %d, want 2", a.Allocations())
	}
	if err := a.Free(off1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := a.Free(off1); err == nil {
		t.Error("double free succeeded")
	}
	if err := a.Free(12345); err == nil {
		t.Error("free of bogus offset succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	d := testDevice(t, 1024)
	a := NewAllocator(d)
	if _, err := a.Alloc(2048); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	off, err := a.Alloc(1024)
	if err != nil {
		t.Fatalf("full-device alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("alloc on full device succeeded")
	}
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1024); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestAllocInvalidSize(t *testing.T) {
	a := NewAllocator(testDevice(t, 1024))
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Error("Alloc(-5) succeeded")
	}
}

func TestAllocCoalescing(t *testing.T) {
	d := testDevice(t, 4096)
	a := NewAllocator(d)
	var offs []int64
	for i := 0; i < 4; i++ {
		off, err := a.Alloc(1024)
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		offs = append(offs, off)
	}
	// Free out of order; the free list must coalesce back to one span.
	for _, i := range []int{2, 0, 3, 1} {
		if err := a.Free(offs[i]); err != nil {
			t.Fatalf("Free #%d: %v", i, err)
		}
	}
	if _, err := a.Alloc(4096); err != nil {
		t.Fatalf("full-device alloc after frees failed (fragmentation?): %v", err)
	}
}

func TestAllocPeak(t *testing.T) {
	a := NewAllocator(testDevice(t, 4096))
	o1, _ := a.Alloc(1024)
	o2, _ := a.Alloc(1024)
	if err := a.Free(o1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(o2); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 {
		t.Errorf("InUse = %d, want 0", a.InUse())
	}
	if a.Peak() != 2048 {
		t.Errorf("Peak = %d, want 2048", a.Peak())
	}
}

// Property: any interleaving of allocs and frees never hands out
// overlapping ranges and always leaves the allocator consistent.
func TestQuickAllocNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := MustOpen(Config{Capacity: 1 << 16})
		a := NewAllocator(d)
		type alloc struct{ off, size int64 }
		var live []alloc
		overlaps := func(x alloc) bool {
			for _, y := range live {
				if x.off < y.off+y.size && y.off < x.off+x.size {
					return true
				}
			}
			return false
		}
		for i := 0; i < 200; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				if err := a.Free(live[k].off); err != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			size := int64(rng.Intn(2000) + 1)
			off, err := a.Alloc(size)
			if err != nil {
				continue // exhaustion is legal
			}
			na := alloc{off, size}
			if overlaps(na) {
				return false
			}
			live = append(live, na)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// freeOneByOne is the reference FreeAll is held to: one sorted,
// shifting insert per offset, coalescing with both neighbours.
func freeOneByOne(a *Allocator, offs []int64) {
	a.free, a.head = a.free[a.head:], 0
	for _, off := range offs {
		size, _ := a.sizeAtLocked(off)
		a.unmarkLocked(off, size)
		a.used -= size
		i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
		a.free = slices.Insert(a.free, i, span{off, size})
		if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
			a.free[i].size += a.free[i+1].size
			a.free = slices.Delete(a.free, i+1, i+2)
		}
		if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
			a.free[i-1].size += a.free[i].size
			a.free = slices.Delete(a.free, i, i+1)
		}
	}
}

// Property: a batch free leaves exactly the free list — and so the same
// later first-fit placements — as freeing the same offsets one by one,
// for any fragmentation and any batch order.
func TestFreeAllMatchesSingleFrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		batch, single := NewAllocator(MustOpen(Config{Capacity: 1 << 18})), NewAllocator(MustOpen(Config{Capacity: 1 << 18}))
		var live []int64
		for round := 0; round < 20; round++ {
			for i, n := 0, rng.Intn(60); i < n; i++ {
				size := int64(rng.Intn(3000) + 1)
				off, err := batch.Alloc(size)
				off2, err2 := single.Alloc(size)
				if (err == nil) != (err2 == nil) || off != off2 {
					return false
				}
				if err == nil {
					live = append(live, off)
				}
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			k := rng.Intn(len(live) + 1)
			if err := batch.FreeAll(live[:k]); err != nil {
				return false
			}
			freeOneByOne(single, live[:k])
			live = live[k:]
			if !slices.Equal(batch.free[batch.head:], single.free[single.head:]) || batch.InUse() != single.InUse() || batch.Allocations() != single.Allocations() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFreeAllRejectsWholeBatch(t *testing.T) {
	a := NewAllocator(testDevice(t, 1<<16))
	var offs []int64
	for i := 0; i < 8; i++ {
		off, err := a.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	inUse, free := a.InUse(), slices.Clone(a.free)
	for name, bad := range map[string][]int64{
		"unallocated": {offs[0], offs[3], 12345},
		"twice":       {offs[1], offs[2], offs[1]},
	} {
		if err := a.FreeAll(bad); err == nil || !strings.Contains(err.Error(), "free of unallocated offset") {
			t.Errorf("%s: FreeAll = %v, want the unallocated-offset error", name, err)
		}
		if a.InUse() != inUse || a.Allocations() != len(offs) || !slices.Equal(a.free, free) {
			t.Errorf("%s: a failed batch freed something (in use %d → %d)", name, inUse, a.InUse())
		}
	}
	if err := a.FreeAll(offs); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || len(a.free) != 1 {
		t.Errorf("after freeing everything: %d bytes in use, %d free spans", a.InUse(), len(a.free))
	}
}

// BenchmarkAllocatorFreeInterleaved drops one of two collections whose
// 1 KiB blocks alternate on the device, beside the holes a third,
// already dropped, left behind — the shape a join's partitions and
// output leave. Every freed block lands in the middle of a long free
// list, which made one shifted insert per block quadratic.
func BenchmarkAllocatorFreeInterleaved(b *testing.B) {
	const blocks, blockSize = 16 << 10, 1024
	a := NewAllocator(MustOpen(Config{Capacity: 3 * blocks * blockSize}))
	cols := [3][]int64{make([]int64, blocks), make([]int64, blocks), make([]int64, blocks)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < blocks; j++ {
			for _, c := range cols {
				var err error
				if c[j], err = a.Alloc(blockSize); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := a.FreeAll(cols[2]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := a.FreeAll(cols[0]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := a.FreeAll(cols[1]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// allocModel is the allocator's reference: its live allocations in a map
// and nothing else. A placement is the first gap between them, in
// address order, that holds the rounded size at the alignment — first
// fit over a free list that coalesces every adjacent pair.
type allocModel struct {
	base, end, line int64
	live            map[int64]int64 // offset → size
}

func (m *allocModel) alloc(size, align int64) (int64, bool) {
	align = max(align, m.line)
	need := (size + m.line - 1) / m.line * m.line
	offs := make([]int64, 0, len(m.live))
	for off := range m.live {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	lo := m.base
	for i := 0; i <= len(offs); i++ {
		hi := m.end
		if i < len(offs) {
			hi = offs[i]
		}
		if off := (lo + align - 1) / align * align; off+need <= hi {
			m.live[off] = need
			return off, true
		}
		if i < len(offs) {
			lo = offs[i] + m.live[offs[i]]
		}
	}
	return 0, false
}

func (m *allocModel) inUse() (n int64) {
	for _, size := range m.live {
		n += size
	}
	return n
}

// TestAllocatorMatchesMapModel holds the allocator to allocModel over
// seeded random sequences of Alloc, AllocAligned and FreeAll: the same
// placements and exhaustions, Allocations and InUse after every step,
// and a failed batch — an unallocated offset, an interior one, a double
// free, an offset named twice — rejected whole, with the unallocated-
// offset error, changing nothing.
func TestAllocatorMatchesMapModel(t *testing.T) {
	const capacity = 1 << 16
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(MustOpen(Config{Capacity: capacity}))
		m := &allocModel{end: capacity, line: DefaultCachelineSize, live: map[int64]int64{}}
		liveOffs := func() []int64 {
			offs := make([]int64, 0, len(m.live))
			for off := range m.live {
				offs = append(offs, off)
			}
			slices.Sort(offs)
			rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
			return offs
		}
		rejects := func(step int, kind string, batch []int64, want string) {
			t.Helper()
			if err := a.FreeAll(batch); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("seed %d step %d: %s batch %v: FreeAll = %v, want %q", seed, step, kind, batch, err, want)
			}
		}
		for step := 0; step < 400; step++ {
			offs := liveOffs()
			switch op := rng.Intn(8); {
			case op < 4 || len(offs) == 0:
				size, align := int64(rng.Intn(3000)+1), []int64{1, 64, 256, 1024}[rng.Intn(4)]
				got, err := a.AllocAligned(size, align)
				want, ok := m.alloc(size, align)
				if (err == nil) != ok || got != want {
					t.Fatalf("seed %d step %d: AllocAligned(%d, %d) = (%d, %v), model (%d, %v)", seed, step, size, align, got, err, want, ok)
				}
			case op < 6:
				batch := offs[:rng.Intn(len(offs))+1]
				if err := a.FreeAll(batch); err != nil {
					t.Fatalf("seed %d step %d: FreeAll: %v", seed, step, err)
				}
				for _, off := range batch {
					delete(m.live, off)
				}
			default:
				good := offs[:rng.Intn(len(offs))]
				inside := offs[0] + int64(rng.Intn(int(m.live[offs[0]]-1))+1)
				switch rng.Intn(4) {
				case 0:
					// The first byte past the end of the device.
					rejects(step, "unallocated", append(slices.Clone(good), capacity), "free of unallocated offset")
				case 1:
					rejects(step, "interior", append(slices.Clone(good), inside), "free of unallocated offset")
				case 2:
					if err := a.Free(offs[0]); err != nil {
						t.Fatal(err)
					}
					delete(m.live, offs[0])
					rejects(step, "double free", append(slices.Clone(offs[1:]), offs[0]), "free of unallocated offset")
				default:
					rejects(step, "named twice", append(slices.Clone(offs), offs[0]), "named twice in one batch")
				}
			}
			if a.Allocations() != len(m.live) || a.InUse() != m.inUse() {
				t.Fatalf("seed %d step %d: %d allocations, %d bytes in use; model %d, %d", seed, step, a.Allocations(), a.InUse(), len(m.live), m.inUse())
			}
		}
	}
}
