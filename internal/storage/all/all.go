// Package all registers the four persistence-layer backends behind one
// constructor, keyed by the paper's implementation names
// (storage.Backends): two block stores of their own (blocked, dynarray)
// and two fsbase profiles (pmfs, ramdisk), all behind the one
// storage.NewFactory.
package all

import (
	"fmt"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
	"wlpm/internal/storage/blocked"
	"wlpm/internal/storage/dynarray"
	"wlpm/internal/storage/fsbase"
)

// backends builds each of storage.Backends.
var backends = map[string]func(dev *pmem.Device, blockSize int) (storage.Factory, error){
	"blocked":  func(dev *pmem.Device, bs int) (storage.Factory, error) { return blocked.New(dev, bs), nil },
	"pmfs":     func(dev *pmem.Device, bs int) (storage.Factory, error) { return fsbase.New(dev, bs, fsbase.PMFS) },
	"ramdisk":  func(dev *pmem.Device, bs int) (storage.Factory, error) { return fsbase.New(dev, bs, fsbase.RAMDisk) },
	"dynarray": func(dev *pmem.Device, bs int) (storage.Factory, error) { return dynarray.New(dev, bs), nil },
}

// New creates a factory for the named backend (one of storage.Backends)
// on dev. Backend initialization failures are returned wrapped with the
// backend name — never panicked — so the façade and the CLIs can fail
// cleanly.
func New(name string, dev *pmem.Device, blockSize int) (storage.Factory, error) {
	mk, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown backend %q (want one of %v)", name, storage.Backends)
	}
	f, err := mk(dev, blockSize)
	if err != nil {
		return nil, fmt.Errorf("storage: backend %q: %w", name, err)
	}
	return f, nil
}
