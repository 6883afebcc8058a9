package blocked

import (
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
)

func TestZeroOverheadWrites(t *testing.T) {
	// Blocked memory's defining property: device writes equal exactly the
	// payload, rounded up to whole blocks — no metadata, no copying.
	dev := pmem.MustOpen(pmem.Config{Capacity: 8 << 20})
	f := New(dev, 1024)
	c, err := f.Create("c", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024 // 1024 × 80 B = 80 KiB = 80 blocks exactly
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
	wantLines := uint64(n * record.Size / 64)
	if st.Writes != wantLines {
		t.Errorf("writes = %d lines, want exactly payload %d", st.Writes, wantLines)
	}
	if st.Reads != 0 {
		t.Errorf("appends caused %d reads", st.Reads)
	}
	if st.SoftTime != 0 {
		t.Errorf("blocked memory charged software time %v", st.SoftTime)
	}
}

func TestOutOfOrderBlockWriteRejected(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	s := &store{alloc: pmem.NewAllocator(dev), blockSize: 1024}
	if err := s.WriteBlock(0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(5, make([]byte, 1024)); err == nil {
		t.Error("out-of-order block write accepted")
	}
}

func TestReadPastContents(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 1 << 20})
	s := &store{alloc: pmem.NewAllocator(dev), blockSize: 1024}
	if err := s.WriteBlock(0, make([]byte, 100)); err != nil { // partial tail block
		t.Fatal(err)
	}
	if _, err := s.ReadBlock(0, make([]byte, 100)); err != nil {
		t.Fatalf("in-bounds read failed: %v", err)
	}
	if _, err := s.ReadBlock(0, make([]byte, 200)); err == nil {
		t.Error("read past block contents accepted")
	}
	if _, err := s.ReadBlock(4096, make([]byte, 10)); err == nil {
		t.Error("read past end accepted")
	}
}
