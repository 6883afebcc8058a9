package storage

import (
	"fmt"
	"io"
)

// BlockStore is the backend-specific persistence of a collection's byte
// stream. The shared BaseCollection chops the record stream into blocks
// and calls WriteBlock in strictly increasing seq order; ReadBlock serves
// any previously written block. Implementations charge their own device
// I/O and software overheads.
type BlockStore interface {
	// WriteBlock persists block seq (seq·BlockSize byte offset). All
	// blocks except the last have exactly the factory block size.
	WriteBlock(seq int, data []byte) error
	// ReadBlock fills dst with the contents of the byte range
	// [off, off+len(dst)); the range is guaranteed to have been written.
	ReadBlock(off int64, dst []byte) error
	// Truncate discards all persisted bytes.
	Truncate() error
	// Destroy releases all device resources.
	Destroy() error
}

// BaseCollection implements Collection on top of a BlockStore. It owns the
// DRAM tail buffer: appended records accumulate in DRAM and are flushed to
// the store one block at a time, which is the paper's cacheline/block
// exchange discipline between the bufferpool and persistent memory (Fig. 3).
type BaseCollection struct {
	name      string
	recSize   int
	blockSize int
	store     BlockStore
	reg       *factory // registry holding the name; nil for a bare collection

	n         int   // records appended
	flushed   int64 // bytes handed to the store
	tail      []byte
	closed    bool
	destroyed bool
}

// NewBaseCollection wires a collection facade over store.
func NewBaseCollection(name string, recSize, blockSize int, store BlockStore) *BaseCollection {
	return &BaseCollection{
		name:      name,
		recSize:   recSize,
		blockSize: blockSize,
		store:     store,
		tail:      make([]byte, 0, blockSize),
	}
}

// Name implements Collection.
func (c *BaseCollection) Name() string { return c.name }

// RecordSize implements Collection.
func (c *BaseCollection) RecordSize() int { return c.recSize }

// Len implements Collection.
func (c *BaseCollection) Len() int { return c.n }

// Append implements Collection.
func (c *BaseCollection) Append(rec []byte) error {
	if c.destroyed {
		return fmt.Errorf("storage: append to destroyed collection %q", c.name)
	}
	if c.closed {
		return fmt.Errorf("storage: append to closed collection %q: %w", c.name, ErrClosed)
	}
	if len(rec) != c.recSize {
		return fmt.Errorf("storage: collection %q: record size %d, want %d", c.name, len(rec), c.recSize)
	}
	c.tail = append(c.tail, rec...)
	c.n++
	for len(c.tail) >= c.blockSize {
		if err := c.store.WriteBlock(int(c.flushed/int64(c.blockSize)), c.tail[:c.blockSize]); err != nil {
			return err
		}
		c.flushed += int64(c.blockSize)
		c.tail = append(c.tail[:0], c.tail[c.blockSize:]...)
	}
	return nil
}

// Scan implements Collection.
func (c *BaseCollection) Scan() Iterator { return c.ScanFrom(0) }

// ScanFrom implements Collection.
func (c *BaseCollection) ScanFrom(start int) Iterator {
	if start < 0 {
		start = 0
	}
	if start > c.n {
		start = c.n
	}
	return &baseIterator{
		c:     c,
		abs:   int64(start) * int64(c.recSize),
		total: int64(c.n) * int64(c.recSize),
		rec:   make([]byte, c.recSize),
		block: make([]byte, 0, c.blockSize),
	}
}

// Truncate implements Collection.
func (c *BaseCollection) Truncate() error {
	if c.destroyed {
		return fmt.Errorf("storage: truncate of destroyed collection %q", c.name)
	}
	if err := c.store.Truncate(); err != nil {
		return err
	}
	c.n = 0
	c.flushed = 0
	c.tail = c.tail[:0]
	c.closed = false
	return nil
}

// Syncer is implemented by stores that batch metadata updates and need a
// flush at collection close (the sector-filesystem flavour).
type Syncer interface {
	Sync() error
}

// Close implements Collection: it flushes the partial tail block and any
// batched store metadata.
func (c *BaseCollection) Close() error {
	if c.destroyed || c.closed {
		return nil
	}
	if len(c.tail) > 0 {
		if err := c.store.WriteBlock(int(c.flushed/int64(c.blockSize)), c.tail); err != nil {
			return err
		}
		c.flushed += int64(len(c.tail))
		// Keep tail contents for in-flight iterators: they may still be
		// serving bytes from DRAM; flushed bytes shadow them consistently.
		c.tail = c.tail[:0]
	}
	if s, ok := c.store.(Syncer); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	c.closed = true
	return nil
}

// Destroy implements Collection: it releases the store's device space,
// then the collection's name in its factory.
func (c *BaseCollection) Destroy() error {
	if c.destroyed {
		return nil
	}
	c.destroyed = true
	c.closed = true
	c.tail = nil
	err := c.store.Destroy()
	if c.reg != nil {
		c.reg.release(c.name)
	}
	return err
}

// baseIterator streams the byte range [0, total) assembled into records.
// Bytes at positions below c.flushed come from the store; the rest from
// the DRAM tail. abs is the absolute offset of the next unconsumed byte;
// the chunk buffer holds fetched-but-unconsumed bytes ending at abs+len.
type baseIterator struct {
	c     *BaseCollection
	abs   int64 // absolute offset of the next byte to consume
	total int64
	rec   []byte
	block []byte   // current fetched chunk
	boff  int      // consume offset within block
	views [][]byte // NextChunk result backing, reused per call
	done  bool
}

func (it *baseIterator) Next() ([]byte, error) {
	if it.done || it.abs >= it.total {
		it.done = true
		return nil, io.EOF
	}
	if it.c.destroyed {
		return nil, fmt.Errorf("storage: scan of destroyed collection %q", it.c.name)
	}
	filled := 0
	for filled < it.c.recSize {
		if it.boff >= len(it.block) {
			if err := it.fetch(); err != nil {
				return nil, err
			}
		}
		n := copy(it.rec[filled:], it.block[it.boff:])
		filled += n
		it.boff += n
		it.abs += int64(n)
	}
	return it.rec, nil
}

// NextChunk implements ChunkIterator: it serves every complete record
// already buffered, refilling the buffer with a multi-block fetch when
// empty. The fetch issues the same per-block store reads the
// record-at-a-time path would — one ReadBlock per aligned block, each
// block read exactly once — so device counters are independent of the
// consumer's batching. A record straddling the buffered range falls back
// to the copying Next path (one record for that call).
func (it *baseIterator) NextChunk(max int) ([][]byte, error) {
	if max < 1 {
		max = 1
	}
	if it.done || it.abs >= it.total {
		it.done = true
		return nil, io.EOF
	}
	if it.c.destroyed {
		return nil, fmt.Errorf("storage: scan of destroyed collection %q", it.c.name)
	}
	rs := it.c.recSize
	if it.boff >= len(it.block) {
		blocks := (max*rs + it.c.blockSize - 1) / it.c.blockSize
		if err := it.fetchN(blocks); err != nil {
			return nil, err
		}
	}
	if cap(it.views) < max {
		// Sized once per scan — to the request or to the records left,
		// whichever is smaller — rather than grown by append.
		if want := min(int64(max), (it.total-it.abs)/int64(rs)); int64(cap(it.views)) < want {
			it.views = make([][]byte, 0, want)
		}
	}
	it.views = it.views[:0]
	for len(it.views) < max && it.boff+rs <= len(it.block) && it.abs+int64(rs) <= it.total {
		it.views = append(it.views, it.block[it.boff:it.boff+rs])
		it.boff += rs
		it.abs += int64(rs)
	}
	if len(it.views) > 0 {
		return it.views, nil
	}
	// Buffered bytes end mid-record: assemble one record through the
	// copying path (the previous call's views have been consumed, so the
	// refill inside Next may reuse the buffer).
	rec, err := it.Next()
	if err != nil {
		return nil, err
	}
	it.views = append(it.views, rec)
	return it.views, nil
}

// fetch loads the next chunk starting at it.abs.
func (it *baseIterator) fetch() error { return it.fetchN(1) }

// fetchN loads up to n store blocks starting at it.abs, one ReadBlock
// per aligned block (identical offsets and lengths to n single-block
// fetches), or the DRAM tail once the flushed range is consumed.
func (it *baseIterator) fetchN(n int) error {
	if it.abs >= it.total {
		return fmt.Errorf("storage: collection %q: stream ended mid-record", it.c.name)
	}
	if n < 1 {
		n = 1
	}
	bs := int64(it.c.blockSize)
	if it.abs < it.c.flushed {
		// Fetch block-aligned chunks from the store.
		start := it.abs / bs * bs
		end := min(start+int64(n)*bs, it.c.flushed)
		if n := int(end - start); cap(it.block) < n {
			it.block = make([]byte, n)
		} else {
			it.block = it.block[:n]
		}
		for off := start; off < end; off += bs {
			stop := min(off+bs, end)
			if err := it.c.store.ReadBlock(off, it.block[off-start:stop-start]); err != nil {
				return err
			}
		}
		it.boff = int(it.abs - start)
		return nil
	}
	// Serve from the DRAM tail: tail offset 0 is byte offset c.flushed.
	toff := it.abs - it.c.flushed
	if toff >= int64(len(it.c.tail)) {
		return fmt.Errorf("storage: collection %q: iterator position %d beyond data", it.c.name, it.abs)
	}
	avail := it.c.tail[toff:]
	if need := it.total - it.abs; int64(len(avail)) > need {
		avail = avail[:need]
	}
	it.block = append(it.block[:0], avail...)
	it.boff = 0
	return nil
}

func (it *baseIterator) Close() error {
	it.done = true
	it.block = nil
	it.views = nil
	return nil
}
