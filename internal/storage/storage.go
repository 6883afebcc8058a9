// Package storage defines the thin persistence layer of the paper's
// implementation stack (§3, Fig. 3): persistent collections hosted in
// persistent memory, manipulated by the runtime algorithms through a common
// abstraction, with data exchanged between DRAM and the device in blocks.
//
// Four interchangeable backends instantiate the layer, one per
// implementation alternative evaluated in the paper (§3.2):
//
//   - blocked  — linked memory blocks; zero overhead beyond raw device I/O
//   - dynarray — doubling dynamic array; write amplification on growth
//   - ramdisk  — block-granularity filesystem (512-byte sectors)
//   - pmfs     — byte-addressable filesystem in the spirit of Intel PMFS
//
// A backend is only its BlockStore — how a collection's blocks reach the
// device. NewFactory wraps one into the Factory every backend shares:
// the collection-name registry, argument checks, default block size and
// the BaseCollection around each store.
package storage

import (
	"errors"
	"io"

	"wlpm/internal/pmem"
)

// DefaultBlockSize is the DRAM↔PM exchange unit. The paper evaluated 512 B
// to 8 KiB and settled on 1024 B (§4, "Implementation and hardware").
const DefaultBlockSize = 1024

// ErrClosed is returned by operations on a closed collection.
var ErrClosed = errors.New("storage: collection is closed")

// Collection is an append-only sequence of fixed-size records in
// persistent memory. A collection has a single appender, and its methods
// are not synchronised against that appender. Once it is closed, any
// number of goroutines may scan it at once, each through its own
// iterator — the engine's parallel phases hand every worker a Slice of
// one shared input — and a backend with range-append support
// (rangewrite.go) lets workers fill disjoint reserved block ranges of one
// output concurrently. (The paper's algorithms are single-threaded, §4;
// the parallelism is this engine's.)
type Collection interface {
	// Name identifies the collection within its factory.
	Name() string
	// RecordSize is the fixed record size in bytes.
	RecordSize() int
	// Len reports the number of records appended so far.
	Len() int
	// Append copies rec (exactly RecordSize bytes) to the end.
	Append(rec []byte) error
	// Scan returns an iterator over all records present when Scan was
	// called. Multiple simultaneous iterators are allowed; appending while
	// scanning is allowed and the iterator observes the prefix.
	Scan() Iterator
	// ScanFrom returns an iterator positioned at record index start
	// without reading the skipped prefix (segmented algorithms scan input
	// suffixes directly).
	ScanFrom(start int) Iterator
	// Truncate discards all records, keeping the collection usable.
	Truncate() error
	// Close flushes buffered data. A closed collection may still be
	// scanned but not appended to.
	Close() error
	// Destroy releases the collection's device space. The collection is
	// unusable afterwards.
	Destroy() error
}

// Iterator streams records. The slice returned by Next is only valid until
// the following call, and may be device bytes (see ChunkIterator):
// callers must copy to retain, and never write through it.
type Iterator interface {
	// Next returns the next record, or io.EOF when exhausted.
	Next() ([]byte, error)
	// Close releases iterator resources.
	Close() error
}

// ChunkIterator is the optional batched form of Iterator, implemented by
// iterators that can hand out several whole records per call without
// per-record copies (stored collections and Slice views of them; the
// sort and join kernels read through it a block at a time, see
// chunk.go). NextChunk returns between 1 and max records in
// stream order, or io.EOF when exhausted. A chunk may be device bytes —
// a store that reads in place hands out its blocks themselves — so it
// is never written through, and it is valid until the following
// NextChunk, Next or Close. A chunked consumer performs exactly the same
// device reads as a record-at-a-time consumer of the same prefix: blocks
// are fetched once each, in order, at the same offsets and lengths —
// batching is a DRAM interpretation change, never an I/O change.
type ChunkIterator interface {
	NextChunk(max int) ([][]byte, error)
}

// Factory creates collections on a shared device. Factory names are the
// experiment-facing backend identifiers ("blocked", "dynarray", "ramdisk",
// "pmfs").
type Factory interface {
	Name() string
	Device() *pmem.Device
	// Create makes an empty collection. Names must be unique per factory.
	Create(name string, recordSize int) (Collection, error)
	// BlockSize is the DRAM↔PM exchange unit used by this factory.
	BlockSize() int
	// ReservesBlocks reports whether the factory's collections take
	// parallel range appends (their store is a BlockStoreAt). Where they
	// do not, a parallel final merge runs serial, and the planner prices
	// it so.
	ReservesBlocks() bool
}

// Backends lists the canonical backend names in the paper's presentation
// order of increasing abstraction overhead at the memory end.
var Backends = []string{"blocked", "pmfs", "ramdisk", "dynarray"}

// ReadAll materializes src into a DRAM slice of copied records; intended
// for tests and small collections.
func ReadAll(src Collection) ([][]byte, error) {
	it := src.Scan()
	defer it.Close()
	var out [][]byte
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		out = append(out, cp)
	}
}
