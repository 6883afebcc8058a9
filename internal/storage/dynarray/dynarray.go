// Package dynarray implements the paper's dynamic-array persistence layer
// (§3.2, "Dynamic arrays"): collections are C++-vector-style contiguous
// regions that double in capacity when full, copying every live byte from
// the old region to the new one. On persistent memory the copy is real
// device traffic, which is exactly the write amplification the paper
// measures for this implementation alternative.
package dynarray

import (
	"fmt"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

// New returns a dynamic-array factory on dev with the given block size
// (0 for the default). The initial capacity of each collection is one
// block.
func New(dev *pmem.Device, blockSize int) storage.Factory {
	alloc := pmem.NewAllocator(dev)
	var f storage.Factory
	f = storage.NewFactory("dynarray", dev, blockSize, false, func(string) (storage.BlockStore, error) {
		return &store{alloc: alloc, blockSize: f.BlockSize()}, nil
	})
	return f
}

// store is one contiguous, doubling region on the device.
type store struct {
	alloc     *pmem.Allocator
	blockSize int
	off       int64 // region device offset
	cp        int64 // region capacity in bytes (0 = unallocated)
	size      int64 // bytes written
}

func (s *store) WriteBlock(seq int, data []byte) error {
	want := int64(seq) * int64(s.blockSize)
	if want != s.size {
		return fmt.Errorf("dynarray: out-of-order block write %d (size %d)", seq, s.size)
	}
	if err := s.ensure(s.size + int64(len(data))); err != nil {
		return err
	}
	if err := s.alloc.Device().WriteAt(data, s.off+s.size); err != nil {
		return err
	}
	s.size += int64(len(data))
	return nil
}

// ensure grows the region to hold at least need bytes, doubling capacity
// and copying the live prefix device-to-device like a vector reallocation.
func (s *store) ensure(need int64) error {
	if need <= s.cp {
		return nil
	}
	newCap := s.cp
	if newCap == 0 {
		newCap = int64(s.blockSize)
	}
	for newCap < need {
		newCap *= 2
	}
	newOff, err := s.alloc.Alloc(newCap)
	if err != nil {
		return err
	}
	if s.cp > 0 {
		// The element copy: read every live byte from the old region and
		// write it to the new one, in block-sized chunks.
		dev := s.alloc.Device()
		buf := make([]byte, s.blockSize)
		for pos := int64(0); pos < s.size; pos += int64(len(buf)) {
			n := min(s.size-pos, int64(len(buf)))
			if err := dev.ReadAt(buf[:n], s.off+pos); err != nil {
				return err
			}
			if err := dev.WriteAt(buf[:n], newOff+pos); err != nil {
				return err
			}
		}
		if err := s.alloc.Free(s.off); err != nil {
			return err
		}
	}
	s.off, s.cp = newOff, newCap
	return nil
}

// ReadBlock copies into buf: the region moves when it doubles, so its
// device bytes cannot be handed out.
func (s *store) ReadBlock(off int64, buf []byte) ([]byte, error) {
	if off+int64(len(buf)) > s.size {
		return nil, fmt.Errorf("dynarray: read [%d,+%d) past size %d", off, len(buf), s.size)
	}
	if err := s.alloc.Device().ReadAt(buf, s.off+off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (s *store) Truncate() error {
	if s.cp > 0 {
		if err := s.alloc.Free(s.off); err != nil {
			return err
		}
	}
	s.off, s.cp, s.size = 0, 0, 0
	return nil
}

// Destroy frees the region.
func (s *store) Destroy() error { return s.Truncate() }
