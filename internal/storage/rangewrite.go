package storage

// Parallel range appends. A collection whose backend can reserve its
// block layout up front accepts one batch of appends through several
// concurrent, order-preserving writers — the mechanism behind the sorts'
// parallel final merge pass. The byte stream produced is identical to
// the same records appended serially: block slots (and their device
// locations) are reserved in sequence order before any writer starts,
// every full block is written exactly once at its final location, and
// the trailing partial block becomes the collection's DRAM tail exactly
// as a serial append run would leave it. Cacheline write counts are
// therefore independent of how the batch is split across writers.
//
// Writers never wait on each other. Each writes the blocks wholly inside
// its byte range straight to their slots and keeps only its head (the
// bytes before its first block boundary) and its tail (the bytes after
// its last). Commit, called once every writer is done, stitches the
// blocks those pieces share — at most one per range boundary — in
// writer order, starting from the collection's DRAM tail.

import "fmt"

// BlockStoreAt is the optional BlockStore capability behind parallel
// range appends: full-block slots are reserved (allocated) in seq order
// up front and then written in any order, possibly concurrently from
// several goroutines (at most one writer per slot).
type BlockStoreAt interface {
	BlockStore
	// ReserveBlocks reserves n full-block slots starting at seq (which
	// must be the current end of the chain), allocating their device
	// locations in ascending seq order — the exact placement n in-order
	// WriteBlock calls would produce.
	ReserveBlocks(seq, n int) error
	// WriteReserved persists one full block into a reserved slot. Safe
	// for concurrent use on distinct slots.
	WriteReserved(seq int, data []byte) error
	// ReleaseBlocks discards the reserved slots [seq, seq+n) — written
	// or not — restoring the store to its pre-reservation state. The
	// released range must be the current end of the chain.
	ReleaseBlocks(seq, n int) error
}

// Unwrapper is implemented by collection decorators (temp trackers);
// AsRangeAppender unwraps through it.
type Unwrapper interface{ Unwrap() Collection }

// AsRangeAppender is the one capability check for range appends: it
// unwraps c through any decorator chain to its base collection and
// reports ok only when that collection's store implements BlockStoreAt.
func AsRangeAppender(c Collection) (*BaseCollection, bool) {
	for {
		switch v := c.(type) {
		case *BaseCollection:
			if _, ok := v.store.(BlockStoreAt); ok {
				return v, true
			}
			return nil, false
		case Unwrapper:
			c = v.Unwrap()
		default:
			return nil, false
		}
	}
}

// RangeAppend is one parallel append session on a BaseCollection. The
// session owns the reserved block slots until Commit installs them or
// Rollback releases them; until then the collection's readable state is
// untouched (readers never observe reserved slots). Writers may run on
// distinct goroutines; Commit and Rollback are single-threaded calls
// made after every writer has returned.
type RangeAppend struct {
	c        *BaseCollection
	store    BlockStoreAt
	base     int // the collection's record count when the session opened
	total    int // records across all ranges
	firstSeq int // first reserved block slot
	nBlocks  int // reserved full-block slots
	writers  []*RangeWriter
	done     bool
}

// AppendRanges opens a range-append session for len(counts) writers,
// writer i appending exactly counts[i] records. The store must implement
// BlockStoreAt (AsRangeAppender).
func (c *BaseCollection) AppendRanges(counts []int) (*RangeAppend, error) {
	store, ok := c.store.(BlockStoreAt)
	if !ok {
		return nil, fmt.Errorf("storage: collection %q: backend cannot reserve blocks", c.name)
	}
	if c.destroyed {
		return nil, fmt.Errorf("storage: range append to destroyed collection %q", c.name)
	}
	if c.closed {
		return nil, fmt.Errorf("storage: range append to closed collection %q: %w", c.name, ErrClosed)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("storage: collection %q: range append needs at least one range", c.name)
	}
	total := 0
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("storage: collection %q: negative range count %d at %d", c.name, n, i)
		}
		total += n
	}
	// The stream starts at the last flushed block boundary (an open
	// collection flushes whole blocks only), with the DRAM tail first.
	bs := int64(c.blockSize)
	pos := int64(len(c.tail))
	ra := &RangeAppend{
		c:        c,
		store:    store,
		base:     c.n,
		total:    total,
		firstSeq: int(c.flushed / bs),
		nBlocks:  int((pos + int64(total)*int64(c.recSize)) / bs),
		writers:  make([]*RangeWriter, len(counts)),
	}
	if err := store.ReserveBlocks(ra.firstSeq, ra.nBlocks); err != nil {
		return nil, err
	}
	for i, n := range counts {
		ra.writers[i] = &RangeWriter{ra: ra, pos: pos, boundary: (pos + bs - 1) / bs * bs, remaining: n}
		pos += int64(n) * int64(c.recSize)
	}
	return ra, nil
}

// Writer returns the writer for range i. Each writer is single-owner;
// distinct writers may be driven from distinct goroutines.
func (ra *RangeAppend) Writer(i int) *RangeWriter { return ra.writers[i] }

// Commit installs the batch. It checks that every writer appended its
// whole range, writes the shared blocks into their reserved slots, and
// leaves the record count, the flushed byte mark and the DRAM tail
// exactly as the same appends made serially would have. A failed Commit
// changes nothing the collection shows; Rollback then releases the
// slots.
func (ra *RangeAppend) Commit() error {
	c := ra.c
	if ra.done {
		return fmt.Errorf("storage: collection %q: range append session already closed", c.name)
	}
	if c.n != ra.base {
		return fmt.Errorf("storage: collection %q mutated during range append", c.name)
	}
	for i, w := range ra.writers {
		if w.remaining != 0 {
			return fmt.Errorf("storage: collection %q: range %d is %d records short at commit", c.name, i, w.remaining)
		}
	}
	// buf holds the stream bytes from the last block boundary: each
	// writer's head completes the block its predecessor's tail (or the
	// DRAM tail) started, unless the range ends short of the boundary.
	bs := c.blockSize
	buf := append(make([]byte, 0, bs), c.tail...)
	for _, w := range ra.writers {
		buf = append(buf, w.head...)
		if len(buf) == bs {
			if err := ra.store.WriteReserved(ra.firstSeq+int(w.boundary/int64(bs))-1, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = append(buf, w.block...)
	}
	ra.done = true
	c.tail = append(c.tail[:0], buf...)
	c.flushed = int64(ra.firstSeq+ra.nBlocks) * int64(bs)
	c.n += ra.total
	return nil
}

// Rollback abandons the session, releasing every reserved block slot;
// the collection is exactly as it was before AppendRanges. Safe to call
// after a failed Commit; a no-op once the session is closed.
func (ra *RangeAppend) Rollback() error {
	if ra.done {
		return nil
	}
	ra.done = true
	return ra.store.ReleaseBlocks(ra.firstSeq, ra.nBlocks)
}

// RangeWriter appends one contiguous record range of a RangeAppend
// session, exactly its declared record count. It is owned by a single
// goroutine and never blocks on another writer.
type RangeWriter struct {
	ra        *RangeAppend
	pos       int64 // stream offset of the next byte
	boundary  int64 // the range's first block boundary: bytes before it are the head
	remaining int   // records still expected
	head      []byte
	block     []byte // the block being filled past boundary; at the end, the tail
}

// Append appends the next record of the writer's range.
func (w *RangeWriter) Append(rec []byte) error {
	c := w.ra.c
	if len(rec) != c.recSize {
		return fmt.Errorf("storage: range writer on %q: record size %d, want %d", c.name, len(rec), c.recSize)
	}
	if w.remaining == 0 {
		return fmt.Errorf("storage: range writer on %q: range overflow", c.name)
	}
	w.remaining--
	if n := min(w.boundary-w.pos, int64(len(rec))); n > 0 {
		w.head = append(w.head, rec[:n]...)
		w.pos += n
		rec = rec[n:]
	}
	bs := c.blockSize
	for len(rec) > 0 {
		if w.block == nil {
			w.block = make([]byte, 0, bs)
		}
		n := min(bs-len(w.block), len(rec))
		w.block = append(w.block, rec[:n]...)
		w.pos += int64(n)
		rec = rec[n:]
		if len(w.block) == bs {
			if err := w.ra.store.WriteReserved(w.ra.firstSeq+int(w.pos/int64(bs))-1, w.block); err != nil {
				return err
			}
			w.block = w.block[:0]
		}
	}
	return nil
}
