// Package blocked implements the paper's blocked-memory persistence layer
// (§3.2, "Blocked memory"): a collection is a chain of fixed-size memory
// blocks allocated one at a time, with no copying on expansion and no
// filesystem machinery. Its only cost is the raw device I/O, which makes
// it the reference implementation the paper recommends striving towards.
package blocked

import (
	"fmt"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

// New returns a blocked-memory factory on dev with the given block size
// (0 for the default). Its collections take parallel range appends.
func New(dev *pmem.Device, blockSize int) storage.Factory {
	alloc := pmem.NewAllocator(dev)
	var f storage.Factory
	f = storage.NewFactory("blocked", dev, blockSize, true, func(string) (storage.BlockStore, error) {
		return &store{alloc: alloc, blockSize: f.BlockSize()}, nil
	})
	return f
}

// store keeps the chain of device blocks. The chain itself (block offsets
// in order) is thin-persistence-layer metadata held in DRAM; the paper's
// blocked memory is "an in-memory file representation without the overhead
// of persistence", i.e. metadata maintenance is deliberately free.
type store struct {
	alloc     *pmem.Allocator
	blockSize int
	blocks    []int64 // device offset per block seq
	last      int     // bytes used in the final block; every earlier one is full (WriteBlock's contract)
}

func (s *store) WriteBlock(seq int, data []byte) error {
	if seq != len(s.blocks) {
		return fmt.Errorf("blocked: out-of-order block write %d (have %d)", seq, len(s.blocks))
	}
	off, err := s.alloc.Alloc(int64(s.blockSize))
	if err != nil {
		return err
	}
	if err := s.alloc.Device().WriteAt(data, off); err != nil {
		return err
	}
	s.blocks = append(s.blocks, off)
	s.last = len(data)
	return nil
}

// ReadBlock serves the range in place: a written block never moves and
// is never rewritten until the collection is truncated or destroyed, so
// the device bytes are the block. buf only gives the range's length.
func (s *store) ReadBlock(off int64, buf []byte) ([]byte, error) {
	bs := int64(s.blockSize)
	seq := off / bs
	if off < 0 || seq >= int64(len(s.blocks)) {
		return nil, fmt.Errorf("blocked: read past end (offset %d)", off)
	}
	within := off - seq*bs
	size := bs
	if seq == int64(len(s.blocks))-1 {
		size = int64(s.last)
	}
	if within+int64(len(buf)) > size {
		return nil, fmt.Errorf("blocked: read [%d,+%d) past block %d contents", off, len(buf), seq)
	}
	return s.alloc.Device().View(s.blocks[seq]+within, len(buf))
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
		off, err := s.alloc.Alloc(int64(s.blockSize))
		if err != nil {
			// Unwind the partial reservation so the store is unchanged.
			if rerr := s.ReleaseBlocks(seq, i); rerr != nil {
				return rerr
			}
			return err
		}
		s.blocks = append(s.blocks, off)
		s.last = s.blockSize
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
	if len(data) != s.blockSize {
		return fmt.Errorf("blocked: reserved block write of %d bytes, want %d", len(data), s.blockSize)
	}
	return s.alloc.Device().WriteAt(data, s.blocks[seq])
}

// ReleaseBlocks implements storage.BlockStoreAt, rolling back a
// reservation suffix.
func (s *store) ReleaseBlocks(seq, n int) error {
	if seq+n != len(s.blocks) {
		return fmt.Errorf("blocked: release of non-suffix blocks [%d,%d) (have %d)", seq, seq+n, len(s.blocks))
	}
	if err := s.alloc.FreeAll(s.blocks[seq:]); err != nil {
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
	if err := s.alloc.FreeAll(s.blocks); err != nil {
		return err
	}
	s.blocks = s.blocks[:0]
	s.last = 0
	return nil
}

// Destroy frees the blocks.
func (s *store) Destroy() error { return s.Truncate() }
