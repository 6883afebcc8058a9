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
	// ReadBlock returns the bytes of the range [off, off+len(buf)),
	// which lies inside one block and is guaranteed to have been
	// written. A store whose blocks never move once written serves them
	// in place: the result is device bytes (pmem.Device.View), charged
	// as a read and never to be written through. A store whose bytes can
	// move, or whose reads model a copying call, fills buf and returns
	// it.
	ReadBlock(off int64, buf []byte) ([]byte, error)
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
	abs := int64(start) * int64(c.recSize)
	it := &baseIterator{
		c:     c,
		abs:   abs,
		end:   abs,
		total: int64(c.n) * int64(c.recSize),
	}
	it.pieces = it.one[:0]
	return it
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
// Bytes below c.flushed come from the store, one ReadBlock per block,
// and are served where the store returns them: device bytes for a store
// that reads in place, the copy buffer for one that copies. The rest
// come from a copy of the DRAM tail. abs is the absolute offset of the
// next unconsumed byte and end that of the first byte not yet fetched;
// the fetched bytes between them are pieces[pi][boff:] and the pieces
// after it.
type baseIterator struct {
	c       *BaseCollection
	abs     int64
	end     int64
	total   int64
	pieces  [][]byte  // the current fetch in stream order; copied blocks side by side are one piece
	one     [1][]byte // pieces' backing for one-block fetches
	buf     []byte    // a copying store's blocks; for one that reads in place, the reads' lengths and the stitch slots
	rec     []byte    // a stitch slot when buf cannot hold one
	views   [][]byte  // NextChunk result backing, reused per call
	pi      int       // piece holding abs
	boff    int       // abs's offset within pieces[pi]
	slots   int       // stitch slots of buf handed out in the current call
	recUsed bool      // rec's slot is handed out in the current call
	copies  bool      // the store copies into buf (learnt from its first read)
	inPlace bool      // the current fetch is device bytes: buf holds none of it
	done    bool
}

// Next is NextChunk(1): the same block reads, one record.
func (it *baseIterator) Next() ([]byte, error) {
	recs, err := it.NextChunk(1)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// NextChunk implements ChunkIterator. It serves every record it can from
// the fetched blocks, up to max, refilling with a multi-block fetch when
// they are used up. The fetch issues the same per-block store reads the
// record-at-a-time path would — one ReadBlock per aligned block, each
// block read exactly once — so device counters are independent of the
// consumer's batching. A record inside one fetched piece is served where
// it lies; one that straddles two pieces is stitched into a slot the
// iterator owns. A record that straddles the end of the fetch is
// stitched only by a call that has served nothing else — reading one
// more block for it, as a record-at-a-time reader would — and that call
// then goes on serving from the block it read.
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
	if it.abs >= it.end {
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
	it.slots, it.recUsed = 0, false
	for len(it.views) < max && it.abs+int64(rs) <= it.total && it.abs < it.end {
		// The whole records left in the current piece, as views.
		p := it.pieces[it.pi][it.boff:]
		if left := it.total - it.abs; int64(len(p)) > left {
			p = p[:left]
		}
		views, lo := it.views, 0
		for ; lo+rs <= len(p) && len(views) < max; lo += rs {
			views = append(views, p[lo:lo+rs:lo+rs])
		}
		if it.views = views; lo > 0 {
			it.consume(lo)
			continue
		}
		if it.end-it.abs < int64(rs) && len(it.views) > 0 {
			break // the rest of the record is not fetched yet
		}
		rec, err := it.stitch()
		if err != nil {
			return nil, err
		}
		it.views = append(it.views, rec)
	}
	return it.views, nil
}

// consume advances past n fetched bytes of the current piece.
func (it *baseIterator) consume(n int) {
	it.abs += int64(n)
	if it.boff += n; it.boff == len(it.pieces[it.pi]) {
		it.pi++
		it.boff = 0
	}
}

// stitch copies the next record into a slot, fetching one block at a
// time while the fetched bytes end inside it.
func (it *baseIterator) stitch() ([]byte, error) {
	slot := it.slot()
	for filled := 0; filled < len(slot); {
		if it.abs >= it.end {
			if err := it.fetchN(1); err != nil {
				return nil, err
			}
		}
		n := copy(slot[filled:], it.pieces[it.pi][it.boff:])
		filled += n
		it.consume(n)
	}
	return slot, nil
}

// slot returns a stitch slot for the current call: from buf while the
// fetch is in place (the store never writes it, and a later fetch in
// the same call is in place too, or the tail, which is copied past the
// first slot), else rec, else a new one.
func (it *baseIterator) slot() []byte {
	rs := it.c.recSize
	if lo, hi := it.slots*rs, (it.slots+1)*rs; it.inPlace && hi <= cap(it.buf) {
		it.slots++
		return it.buf[lo:hi:hi]
	}
	if it.recUsed {
		return make([]byte, rs)
	}
	it.recUsed = true
	if len(it.rec) < rs {
		it.rec = make([]byte, rs)
	}
	return it.rec[:rs:rs]
}

// fetchN loads up to n store blocks starting at it.abs, one ReadBlock
// per aligned block (identical offsets and lengths to n single-block
// fetches), or the DRAM tail once the flushed range is consumed.
func (it *baseIterator) fetchN(n int) error {
	if it.abs >= it.total {
		return fmt.Errorf("storage: collection %q: stream ended mid-record", it.c.name)
	}
	n = max(n, 1)
	it.pi, it.boff = 0, 0
	bs := int64(it.c.blockSize)
	if it.abs < it.c.flushed {
		// Fetch block-aligned chunks from the store.
		start := it.abs / bs * bs
		end := min(start+int64(n)*bs, it.c.flushed)
		blocks := int((end - start + bs - 1) / bs)
		if cap(it.pieces) < blocks {
			it.pieces = make([][]byte, 0, blocks)
		} else {
			it.pieces = it.pieces[:0]
		}
		// A copying store fills buf block after block. One that reads in
		// place only takes each read's length from buf's head, and leaves
		// it to the stitch slots, one per block boundary.
		need := int(end - start)
		if !it.copies {
			need = max(min(it.c.blockSize, need), blocks*it.c.recSize)
		}
		if cap(it.buf) < need {
			it.buf = make([]byte, need)
		}
		for off := start; off < end; off += bs {
			size := int(min(off+bs, end) - off)
			dst := it.buf[:size]
			if it.copies {
				dst = it.buf[off-start : int(off-start)+size]
			}
			got, err := it.c.store.ReadBlock(off, dst)
			if err != nil {
				return err
			}
			if !it.copies && &got[0] == &dst[0] {
				// The store copies. A store reads in place or copies,
				// always, so this is its first read: the fetch's blocks
				// go side by side in a buffer as long as the fetch.
				it.copies = true
				it.buf = make([]byte, end-start)
				dst = it.buf[off-start : int(off-start)+size]
				copy(dst, got)
				got = dst
			}
			it.addPiece(got)
		}
		it.inPlace = !it.copies
		it.boff = int(it.abs - start)
		it.end = end
		return nil
	}
	// Serve from the DRAM tail: tail offset 0 is byte offset c.flushed.
	// Its copy goes into buf after one record's room: a record being
	// stitched into the tail may hold buf's first slot.
	toff := it.abs - it.c.flushed
	if toff >= int64(len(it.c.tail)) {
		return fmt.Errorf("storage: collection %q: iterator position %d beyond data", it.c.name, it.abs)
	}
	avail := it.c.tail[toff:]
	if need := it.total - it.abs; int64(len(avail)) > need {
		avail = avail[:need]
	}
	rs := it.c.recSize
	if cap(it.buf) < rs+len(avail) {
		it.buf = make([]byte, rs+len(avail))
	}
	tail := it.buf[rs : rs+copy(it.buf[rs:cap(it.buf)], avail)]
	it.pieces = append(it.pieces[:0], tail)
	it.inPlace = false
	it.end = it.abs + int64(len(avail))
	return nil
}

// addPiece appends a block read to the current fetch, extending the last
// piece instead when the block lies right after it in memory (the blocks
// a copying store put side by side in the copy buffer).
func (it *baseIterator) addPiece(b []byte) {
	if k := len(it.pieces); k > 0 && len(b) > 0 {
		last := it.pieces[k-1]
		if n := len(last); cap(last)-n >= len(b) && &last[:n+1][n] == &b[0] {
			it.pieces[k-1] = last[:n+len(b)]
			return
		}
	}
	it.pieces = append(it.pieces, b)
}

func (it *baseIterator) Close() error {
	it.done = true
	it.pieces = nil
	it.one = [1][]byte{}
	it.buf = nil
	it.rec = nil
	it.views = nil
	return nil
}
