package dynarray

import (
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// The defining behaviour of this layer: capacity doubling copies every
// live byte device-to-device, so total writes approach 2–3× the payload
// (Σ 2^i copies) instead of blocked memory's exactly-1×.
func TestDoublingWriteAmplification(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 64 << 20})
	f := New(dev, 1024)
	c, err := f.Create("c", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12800 // 1 MiB payload
	dev.ResetStats()
	for i := 0; i < n; i++ {
		if err := c.Append(record.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	payload := uint64(n * record.Size / 64)
	if st.Writes < payload*15/10 {
		t.Errorf("writes %d lines: expected ≥1.5× payload %d from doubling copies", st.Writes, payload)
	}
	if st.Reads == 0 {
		t.Error("doubling must read the old region back; saw zero reads")
	}
}

// Growth must free the old region: the allocator's live footprint after
// many appends is the final capacity only.
func TestGrowthFreesOldRegions(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 64 << 20})
	s := &store{alloc: pmem.NewAllocator(dev), blockSize: 1024}
	c := storage.NewBaseCollection("c", record.Size, 1024, s)
	for i := 0; i < 12800; i++ {
		if err := c.Append(record.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.alloc.Allocations(); got != 1 {
		t.Errorf("%d live allocations after growth, want 1 (old regions leaked)", got)
	}
	if s.alloc.Peak() <= s.alloc.InUse() {
		t.Error("peak should exceed steady state (old+new coexist during a copy)")
	}
}

func TestOutOfOrderWriteRejected(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	s := &store{alloc: pmem.NewAllocator(dev), blockSize: 1024}
	if err := s.WriteBlock(3, make([]byte, 1024)); err == nil {
		t.Error("out-of-order block write accepted")
	}
}
