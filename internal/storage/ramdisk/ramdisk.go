// Package ramdisk implements the paper's RAM-disk persistence layer
// (§3.2, "RAM disk"): a complete lightweight filesystem mounted in memory.
// Files are manipulated through filesystem calls at 512-byte sector
// granularity — the traditional block-device interface — so every data
// access is rounded out to whole sectors and metadata updates rewrite
// whole inode sectors. The per-call software overhead models the
// filesystem code path the paper identifies as this option's cost.
package ramdisk

import (
	"fmt"
	"sync"
	"time"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
	"wlpm/internal/storage/fsbase"
)

// SectorSize is the classic disk record size the paper cites for RAM-disk
// files.
const SectorSize = 512

// CallOverhead is the modelled software cost per filesystem call: a
// system call plus the generic block-filesystem code path.
const CallOverhead = 600 * time.Nanosecond

// Factory creates collections as files on a freshly formatted RAM disk.
// Create and Destroy are safe for concurrent use; individual collections
// remain single-owner.
type Factory struct {
	fs        *fsbase.FS
	blockSize int

	mu    sync.Mutex
	names map[string]bool
}

// New formats dev as a RAM disk and returns its factory. Initialization
// failures (an undersized or exhausted device) return a wrapped error so
// callers can fail cleanly instead of panicking.
func New(dev *pmem.Device, blockSize int) (*Factory, error) {
	if blockSize <= 0 {
		blockSize = storage.DefaultBlockSize
	}
	fs, err := fsbase.Format(dev, fsbase.Profile{
		Name:            "ramdisk",
		Granularity:     SectorSize,
		CallOverhead:    CallOverhead,
		InodeWriteWhole: true,
	})
	if err != nil {
		return nil, fmt.Errorf("ramdisk: format: %w", err)
	}
	return &Factory{fs: fs, blockSize: blockSize, names: make(map[string]bool)}, nil
}

// Name implements storage.Factory.
func (f *Factory) Name() string { return "ramdisk" }

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
		return nil, fmt.Errorf("ramdisk: collection %q already exists", name)
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

func (s *store) Sync() error { return s.file.Sync() }

func (s *store) Truncate() error { return s.file.Truncate() }

// Destroy removes the backing file and releases the name for reuse.
func (s *store) Destroy() error {
	s.f.mu.Lock()
	delete(s.f.names, s.file.Name())
	s.f.mu.Unlock()
	return s.f.fs.Remove(s.file.Name())
}
