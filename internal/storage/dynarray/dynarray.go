// Package dynarray implements the paper's dynamic-array persistence layer
// (§3.2, "Dynamic arrays"): collections are C++-vector-style contiguous
// regions that double in capacity when full, copying every live byte from
// the old region to the new one. On persistent memory the copy is real
// device traffic, which is exactly the write amplification the paper
// measures for this implementation alternative.
package dynarray

import (
	"fmt"
	"sync"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

// Factory creates dynamic-array collections. Create and Destroy are safe
// for concurrent use; individual collections remain single-owner.
type Factory struct {
	alloc     *pmem.Allocator
	blockSize int

	mu    sync.Mutex
	names map[string]bool
}

// New returns a factory on dev with the given block size (0 for the
// default). The initial capacity of each collection is one block.
func New(dev *pmem.Device, blockSize int) *Factory {
	if blockSize <= 0 {
		blockSize = storage.DefaultBlockSize
	}
	return &Factory{
		alloc:     pmem.NewAllocator(dev),
		blockSize: blockSize,
		names:     make(map[string]bool),
	}
}

// Name implements storage.Factory.
func (f *Factory) Name() string { return "dynarray" }

// Device implements storage.Factory.
func (f *Factory) Device() *pmem.Device { return f.alloc.Device() }

// BlockSize implements storage.Factory.
func (f *Factory) BlockSize() int { return f.blockSize }

// ReservesBlocks implements storage.Factory.
func (f *Factory) ReservesBlocks() bool { return false }

// Create implements storage.Factory.
func (f *Factory) Create(name string, recordSize int) (storage.Collection, error) {
	if err := storage.ValidateCreate(name, recordSize); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.names[name] {
		return nil, fmt.Errorf("dynarray: collection %q already exists", name)
	}
	f.names[name] = true
	return storage.NewBaseCollection(name, recordSize, f.blockSize, &store{f: f, name: name}), nil
}

// store is one contiguous, doubling region on the device.
type store struct {
	f    *Factory
	name string
	off  int64 // region device offset
	cp   int64 // region capacity in bytes (0 = unallocated)
	size int64 // bytes written
}

func (s *store) WriteBlock(seq int, data []byte) error {
	want := int64(seq) * int64(s.f.blockSize)
	if want != s.size {
		return fmt.Errorf("dynarray: out-of-order block write %d (size %d)", seq, s.size)
	}
	if err := s.ensure(s.size + int64(len(data))); err != nil {
		return err
	}
	if err := s.f.alloc.Device().WriteAt(data, s.off+s.size); err != nil {
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
		newCap = int64(s.f.blockSize)
	}
	for newCap < need {
		newCap *= 2
	}
	newOff, err := s.f.alloc.Alloc(newCap)
	if err != nil {
		return err
	}
	if s.cp > 0 {
		// The element copy: read every live byte from the old region and
		// write it to the new one, in block-sized chunks.
		dev := s.f.alloc.Device()
		buf := make([]byte, s.f.blockSize)
		for pos := int64(0); pos < s.size; pos += int64(len(buf)) {
			n := s.size - pos
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			if err := dev.ReadAt(buf[:n], s.off+pos); err != nil {
				return err
			}
			if err := dev.WriteAt(buf[:n], newOff+pos); err != nil {
				return err
			}
		}
		if err := s.f.alloc.Free(s.off); err != nil {
			return err
		}
	}
	s.off, s.cp = newOff, newCap
	return nil
}

func (s *store) ReadBlock(off int64, dst []byte) error {
	if off+int64(len(dst)) > s.size {
		return fmt.Errorf("dynarray: read [%d,+%d) past size %d", off, len(dst), s.size)
	}
	return s.f.alloc.Device().ReadAt(dst, s.off+off)
}

func (s *store) Truncate() error {
	if s.cp > 0 {
		if err := s.f.alloc.Free(s.off); err != nil {
			return err
		}
	}
	s.off, s.cp, s.size = 0, 0, 0
	return nil
}

// Destroy frees the region and releases the collection's name for reuse.
func (s *store) Destroy() error {
	s.f.mu.Lock()
	delete(s.f.names, s.name)
	s.f.mu.Unlock()
	return s.Truncate()
}
