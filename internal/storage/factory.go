package storage

import (
	"fmt"
	"sync"

	"wlpm/internal/pmem"
)

// factory is the one Factory implementation. The four backends differ
// only in how a collection's blocks reach the device — their BlockStore —
// so the collection registry, argument checks, default block size and
// BaseCollection wrapping live here once. Create and Destroy are safe for
// concurrent use; individual collections remain single-owner.
type factory struct {
	name      string
	dev       *pmem.Device
	blockSize int
	reserves  bool
	open      func(name string) (BlockStore, error)

	mu    sync.Mutex
	names map[string]bool
}

// NewFactory returns the factory of backend name on dev. blockSize is the
// DRAM↔PM exchange unit (0 for DefaultBlockSize); reserves declares that
// open's stores implement BlockStoreAt (Factory.ReservesBlocks). open
// builds the store of a new collection once its name is taken.
// Destroying a collection destroys its store and then releases its name
// for reuse.
func NewFactory(name string, dev *pmem.Device, blockSize int, reserves bool, open func(name string) (BlockStore, error)) Factory {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &factory{
		name:      name,
		dev:       dev,
		blockSize: blockSize,
		reserves:  reserves,
		open:      open,
		names:     make(map[string]bool),
	}
}

func (f *factory) Name() string         { return f.name }
func (f *factory) Device() *pmem.Device { return f.dev }
func (f *factory) BlockSize() int       { return f.blockSize }
func (f *factory) ReservesBlocks() bool { return f.reserves }

// Create implements Factory. The name is taken before open runs and
// given back if open fails; open itself runs outside the registry lock,
// so the registry mutex never nests a backend's locks.
func (f *factory) Create(name string, recordSize int) (Collection, error) {
	if err := validateCreate(name, recordSize); err != nil {
		return nil, err
	}
	f.mu.Lock()
	taken := f.names[name]
	f.names[name] = true
	f.mu.Unlock()
	if taken {
		return nil, fmt.Errorf("%s: collection %q already exists", f.name, name)
	}
	store, err := f.open(name)
	if err != nil {
		f.release(name)
		return nil, err
	}
	c := NewBaseCollection(name, recordSize, f.blockSize, store)
	c.reg = f
	return c, nil
}

// release frees name for reuse: its collection was destroyed, or its
// store could not be opened.
func (f *factory) release(name string) {
	f.mu.Lock()
	delete(f.names, name)
	f.mu.Unlock()
}

// validateCreate checks the Create arguments every backend shares.
func validateCreate(name string, recordSize int) error {
	if name == "" {
		return fmt.Errorf("storage: empty collection name")
	}
	if recordSize <= 0 {
		return fmt.Errorf("storage: record size must be positive, got %d", recordSize)
	}
	return nil
}
