package fsbase

import (
	"fmt"
	"time"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

// SectorSize is the classic disk record size the paper cites for RAM-disk
// files.
const SectorSize = 512

// PMFS is the paper's byte-addressable filesystem (§3.2), modelled on
// Intel PMFS: file access compiles down to load/store instructions at
// byte granularity, with fine-grained metadata persistence (an 8-byte
// size update per append) and a kernel-level call path — 150 ns a call —
// far thinner than a block filesystem's.
var PMFS = Profile{
	Name:                  "pmfs",
	Granularity:           1,
	CallOverhead:          150 * time.Nanosecond,
	SizeUpdateEveryAppend: true,
}

// RAMDisk is the paper's RAM disk (§3.2): a complete lightweight
// filesystem mounted in memory and reached through the traditional
// block-device interface. Every data access is rounded out to whole
// 512-byte sectors, metadata updates rewrite whole inode sectors, the
// size field is persisted in batches (on extent changes and at Close),
// and each call costs 600 ns: a system call plus the generic
// block-filesystem code path.
var RAMDisk = Profile{
	Name:            "ramdisk",
	Granularity:     SectorSize,
	CallOverhead:    600 * time.Nanosecond,
	InodeWriteWhole: true,
}

// New formats dev with prof and returns a factory whose collections are
// files on it, exchanged with DRAM in blocks of blockSize (0 for the
// default). Initialization failures (an undersized or exhausted device)
// return a wrapped error so callers can fail cleanly instead of
// panicking.
func New(dev *pmem.Device, blockSize int, prof Profile) (storage.Factory, error) {
	fs, err := Format(dev, prof)
	if err != nil {
		return nil, fmt.Errorf("%s: format: %w", prof.Name, err)
	}
	return storage.NewFactory(prof.Name, dev, blockSize, false, func(name string) (storage.BlockStore, error) {
		file, err := fs.Create(name)
		if err != nil {
			return nil, err
		}
		if prof.SizeUpdateEveryAppend {
			return &store{file}, nil
		}
		return &syncStore{store{file}}, nil
	}), nil
}

// store keeps a collection's byte stream in one file.
type store struct{ file *File }

func (s *store) WriteBlock(_ int, data []byte) error { return s.file.Append(data) }

// ReadBlock copies into buf: a filesystem read is a copying call.
func (s *store) ReadBlock(off int64, buf []byte) ([]byte, error) {
	if err := s.file.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (s *store) Truncate() error { return s.file.Truncate() }

// Destroy removes the file.
func (s *store) Destroy() error { return s.file.fs.Remove(s.file.name) }

// syncStore is the store of a profile that batches the size field: it is
// a storage.Syncer, so closing the collection persists the size. A
// profile that persists it on every append has no Sync — one would only
// add an inode write and a call charge to every Close.
type syncStore struct{ store }

func (s *syncStore) Sync() error { return s.file.Sync() }
