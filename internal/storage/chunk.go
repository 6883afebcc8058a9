package storage

import "io"

// ChunkRecords is the kernels' scan granularity: one block's worth of
// whole records, at least one. Reading a block at a time keeps a scan's
// input buffer the single block the paper's memory budget accounts for.
func ChunkRecords(blockSize, recSize int) int {
	if n := blockSize / recSize; n > 1 {
		return n
	}
	return 1
}

// Chunked returns it's ChunkIterator, or for an iterator without one
// (selection streams, foreign collections) an adapter that serves
// one-record chunks through Next: the one record-at-a-time fallback
// every chunk reader — ForEach, Cursor, Limit, the engine's drains and
// chain iterators — shares.
func Chunked(it Iterator) ChunkIterator {
	if ci, ok := it.(ChunkIterator); ok {
		return ci
	}
	return &singles{it: it}
}

type singles struct {
	it  Iterator
	one [1][]byte
}

func (s *singles) NextChunk(int) ([][]byte, error) {
	rec, err := s.it.Next()
	if err != nil {
		return nil, err
	}
	s.one[0] = rec
	return s.one[:], nil
}

// ForEach applies fn to every remaining record of it, in stream order,
// reading at most chunk records per NextChunk call. It is the kernels'
// one scan loop: records reach fn as views of the blocks read (valid
// only during the call, and device bytes where the store reads in
// place, so never written through), and a scan copies nothing it does
// not keep. Cancellation is fn's business — kernel callers pass a
// poll-wrapped fn. ForEach does not close it.
func ForEach(it Iterator, chunk int, fn func(rec []byte) error) error {
	ci := Chunked(it)
	for {
		recs, err := ci.NextChunk(chunk)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// Cursor is the pull form of ForEach for consumers that interleave
// several sources (k-way merges): Next serves the records of one chunk
// at a time. The returned view is valid until the following Next.
type Cursor struct {
	ci    ChunkIterator
	chunk int
	recs  [][]byte
	i     int
}

// NewCursor reads it in chunks of at most chunk records.
func NewCursor(it Iterator, chunk int) *Cursor {
	return &Cursor{ci: Chunked(it), chunk: chunk}
}

// Next returns the next record, or io.EOF when the iterator is exhausted.
func (c *Cursor) Next() ([]byte, error) {
	if c.i >= len(c.recs) {
		recs, err := c.ci.NextChunk(c.chunk)
		if err != nil {
			return nil, err
		}
		c.recs, c.i = recs, 0
	}
	rec := c.recs[c.i]
	c.i++
	return rec, nil
}
