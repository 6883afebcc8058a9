// Package pmfs implements the paper's byte-addressable-filesystem
// persistence layer (§3.2, "Byte-addressable filesystem"), modelled on
// Intel PMFS: file access compiles down to load/store instructions at byte
// granularity, with fine-grained metadata persistence (an 8-byte size
// update per append) and a kernel-level call path whose overhead is far
// below a block filesystem's.
package pmfs

import (
	"fmt"
	"sync"
	"time"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
	"wlpm/internal/storage/fsbase"
)

// CallOverhead is the modelled software cost per filesystem call: PMFS is
// a kernel-level filesystem with a deliberately thin code path.
const CallOverhead = 150 * time.Nanosecond

// Factory creates collections as files on a freshly formatted PMFS
// volume. Create and Destroy are safe for concurrent use; individual
// collections remain single-owner.
type Factory struct {
	fs        *fsbase.FS
	blockSize int

	mu    sync.Mutex
	names map[string]bool
}

// New formats dev as a PMFS volume and returns its factory.
// Initialization failures (an undersized or exhausted device) return a
// wrapped error so callers can fail cleanly instead of panicking.
func New(dev *pmem.Device, blockSize int) (*Factory, error) {
	if blockSize <= 0 {
		blockSize = storage.DefaultBlockSize
	}
	fs, err := fsbase.Format(dev, fsbase.Profile{
		Name:                  "pmfs",
		Granularity:           1, // byte-addressable
		CallOverhead:          CallOverhead,
		SizeUpdateEveryAppend: true,
	})
	if err != nil {
		return nil, fmt.Errorf("pmfs: format: %w", err)
	}
	return &Factory{fs: fs, blockSize: blockSize, names: make(map[string]bool)}, nil
}

// Name implements storage.Factory.
func (f *Factory) Name() string { return "pmfs" }

// Device implements storage.Factory.
func (f *Factory) Device() *pmem.Device { return f.fs.Device() }

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
		return nil, fmt.Errorf("pmfs: collection %q already exists", name)
	}
	file, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	f.names[name] = true
	return storage.NewBaseCollection(name, recordSize, f.blockSize, &store{f: f, file: file}), nil
}

type store struct {
	f    *Factory
	file *fsbase.File
}

func (s *store) WriteBlock(_ int, data []byte) error { return s.file.Append(data) }

func (s *store) ReadBlock(off int64, dst []byte) error { return s.file.ReadAt(dst, off) }

func (s *store) Truncate() error { return s.file.Truncate() }

// Destroy removes the backing file and releases the name for reuse.
func (s *store) Destroy() error {
	s.f.mu.Lock()
	delete(s.f.names, s.file.Name())
	s.f.mu.Unlock()
	return s.f.fs.Remove(s.file.Name())
}
