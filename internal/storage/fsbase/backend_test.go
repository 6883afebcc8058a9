package fsbase

import (
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

func TestPMFSFactoryBasics(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	f, err := New(dev, 0, PMFS)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "pmfs" || f.BlockSize() != storage.DefaultBlockSize || f.Device() != dev {
		t.Fatalf("factory identity broken: %s/%d", f.Name(), f.BlockSize())
	}
	if _, err := New(pmem.MustOpen(pmem.Config{Capacity: 1 << 10}), 0, PMFS); err == nil {
		t.Error("formatted a device smaller than the metadata region")
	}
}

// PMFS's defining property versus the RAM disk: byte-granularity access,
// so metadata overhead is a few percent, not whole sectors.
func TestByteGranularMetadataOverhead(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	f, err := New(dev, 0, PMFS)
	if err != nil {
		t.Fatal(err)
	}
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
	if st.Writes < payload {
		t.Fatalf("writes %d below payload %d", st.Writes, payload)
	}
	if st.Writes > payload*115/100 {
		t.Errorf("metadata overhead too large: %d writes for %d payload lines", st.Writes, payload)
	}
	if st.SoftTime == 0 {
		t.Error("filesystem calls charged no software time")
	}
}

func TestDestroyFreesFile(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	f, err := New(dev, 0, PMFS)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Create("c", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := c.Append(record.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := c.Destroy(); err != nil {
		t.Fatalf("second Destroy not idempotent: %v", err)
	}
}

func TestRAMDiskFactoryBasics(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	f, err := New(dev, 0, RAMDisk)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "ramdisk" || f.BlockSize() != storage.DefaultBlockSize {
		t.Fatalf("factory identity broken: %s/%d", f.Name(), f.BlockSize())
	}
	if _, err := f.Create("dup", record.Size); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("dup", record.Size); err == nil {
		t.Error("duplicate collection accepted")
	}
}

// The RAM disk's defining property: all data I/O is rounded to whole
// 512-byte sectors and metadata updates rewrite whole inode sectors, so
// it writes strictly more than the byte-addressable filesystem for the
// same workload.
func TestSectorOverheadExceedsPMFS(t *testing.T) {
	run := func(mk func(dev *pmem.Device) storage.Factory) pmem.Stats {
		dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
		f := mk(dev)
		c, err := f.Create("c", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		// 81 records = 6480 bytes: a deliberately sector-unaligned tail.
		for i := 0; i < 81; i++ {
			if err := c.Append(record.New(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats()
	}
	rd := run(func(dev *pmem.Device) storage.Factory {
		f, err := New(dev, 0, RAMDisk)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
	if rd.Writes == 0 || rd.SoftTime == 0 {
		t.Fatalf("ramdisk stats implausible: %+v", rd)
	}
	// Tail flush of a partial block must still write whole sectors:
	// writes are a multiple of 8 cachelines (512 B) for the data portion
	// plus inode sectors — so total lines are divisible by 8.
	if rd.Writes%8 != 0 {
		t.Errorf("ramdisk wrote %d lines; sector granularity requires a multiple of 8", rd.Writes)
	}
}
