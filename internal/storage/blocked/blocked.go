// Package blocked implements the paper's blocked-memory persistence layer
// (§3.2, "Blocked memory"): a collection is a chain of fixed-size memory
// blocks allocated one at a time, with no copying on expansion and no
// filesystem machinery. Its only cost is the raw device I/O, which makes
// it the reference implementation the paper recommends striving towards.
package blocked

import (
	"fmt"
	"sync"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

// Factory creates blocked-memory collections. Create and Destroy are safe
// for concurrent use; individual collections remain single-owner.
type Factory struct {
	alloc     *pmem.Allocator
	blockSize int

	mu    sync.Mutex
	names map[string]bool
}

// New returns a factory on dev with the given block size (0 for the
// default).
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
func (f *Factory) Name() string { return "blocked" }

// Device implements storage.Factory.
func (f *Factory) Device() *pmem.Device { return f.alloc.Device() }

// BlockSize implements storage.Factory.
func (f *Factory) BlockSize() int { return f.blockSize }

// ReservesBlocks implements storage.Factory.
func (f *Factory) ReservesBlocks() bool { return true }

// Create implements storage.Factory.
func (f *Factory) Create(name string, recordSize int) (storage.Collection, error) {
	if err := storage.ValidateCreate(name, recordSize); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.names[name] {
		return nil, fmt.Errorf("blocked: collection %q already exists", name)
	}
	f.names[name] = true
	return storage.NewBaseCollection(name, recordSize, f.blockSize, &store{f: f, name: name}), nil
}

// store keeps the chain of device blocks. The chain itself (block offsets
// in order) is thin-persistence-layer metadata held in DRAM; the paper's
// blocked memory is "an in-memory file representation without the overhead
// of persistence", i.e. metadata maintenance is deliberately free.
type store struct {
	f      *Factory
	name   string
	blocks []int64 // device offset per block seq
	last   int     // bytes used in the final block; every earlier one is full (WriteBlock's contract)
}

func (s *store) WriteBlock(seq int, data []byte) error {
	if seq != len(s.blocks) {
		return fmt.Errorf("blocked: out-of-order block write %d (have %d)", seq, len(s.blocks))
	}
	off, err := s.f.alloc.Alloc(int64(s.f.blockSize))
	if err != nil {
		return err
	}
	if err := s.f.alloc.Device().WriteAt(data, off); err != nil {
		return err
	}
	s.blocks = append(s.blocks, off)
	s.last = len(data)
	return nil
}

func (s *store) ReadBlock(off int64, dst []byte) error {
	bs := int64(s.f.blockSize)
	for len(dst) > 0 {
		seq := off / bs
		if seq >= int64(len(s.blocks)) {
			return fmt.Errorf("blocked: read past end (offset %d)", off)
		}
		within := off - seq*bs
		size := bs
		if seq == int64(len(s.blocks))-1 {
			size = int64(s.last)
		}
		n := size - within
		if n <= 0 {
			return fmt.Errorf("blocked: read past block %d contents", seq)
		}
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if err := s.f.alloc.Device().ReadAt(dst[:n], s.blocks[seq]+within); err != nil {
			return err
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// ReserveBlocks implements storage.BlockStoreAt: it allocates n
// full-block slots in ascending seq order — the exact device placement n
// in-order WriteBlock calls would produce, so parallel range appends are
// cacheline-identical to serial ones.
func (s *store) ReserveBlocks(seq, n int) error {
	if seq != len(s.blocks) {
		return fmt.Errorf("blocked: out-of-order block reservation %d (have %d)", seq, len(s.blocks))
	}
	for i := 0; i < n; i++ {
		off, err := s.f.alloc.Alloc(int64(s.f.blockSize))
		if err != nil {
			// Unwind the partial reservation so the store is unchanged.
			if rerr := s.ReleaseBlocks(seq, i); rerr != nil {
				return rerr
			}
			return err
		}
		s.blocks = append(s.blocks, off)
		s.last = s.f.blockSize
	}
	return nil
}

// WriteReserved implements storage.BlockStoreAt. It only reads the
// block chain (never mutates it) and the device handles concurrent
// writes to disjoint offsets, so distinct reserved slots may be written
// from distinct goroutines.
func (s *store) WriteReserved(seq int, data []byte) error {
	if seq < 0 || seq >= len(s.blocks) {
		return fmt.Errorf("blocked: write to unreserved block %d (have %d)", seq, len(s.blocks))
	}
	if len(data) != s.f.blockSize {
		return fmt.Errorf("blocked: reserved block write of %d bytes, want %d", len(data), s.f.blockSize)
	}
	return s.f.alloc.Device().WriteAt(data, s.blocks[seq])
}

// ReleaseBlocks implements storage.BlockStoreAt, rolling back a
// reservation suffix.
func (s *store) ReleaseBlocks(seq, n int) error {
	if seq+n != len(s.blocks) {
		return fmt.Errorf("blocked: release of non-suffix blocks [%d,%d) (have %d)", seq, seq+n, len(s.blocks))
	}
	if err := s.f.alloc.FreeAll(s.blocks[seq:]); err != nil {
		return err
	}
	// The block before the reservation, if any, is full: reservations
	// start at a block boundary, so last needs no restoring.
	s.blocks = s.blocks[:seq]
	return nil
}

// Truncate frees the whole chain in one batch: the blocks of collections
// written side by side interleave on the device, and freeing them one at
// a time shifts the allocator's free list once per block.
func (s *store) Truncate() error {
	if err := s.f.alloc.FreeAll(s.blocks); err != nil {
		return err
	}
	s.blocks = s.blocks[:0]
	s.last = 0
	return nil
}

// Destroy frees the blocks and releases the collection's name for reuse.
func (s *store) Destroy() error {
	s.f.mu.Lock()
	delete(s.f.names, s.name)
	s.f.mu.Unlock()
	return s.Truncate()
}
