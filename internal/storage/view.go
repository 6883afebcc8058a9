package storage

import (
	"fmt"
	"io"
)

// Slice returns a read-only view of records [start, end) of c. Scans of
// the view read only the covered byte range; the segmented algorithms use
// views to process input fractions without copying them. Mutating methods
// fail.
func Slice(c Collection, start, end int) Collection {
	if start < 0 {
		start = 0
	}
	if end > c.Len() {
		end = c.Len()
	}
	if start > end {
		start = end
	}
	return &view{c: c, start: start, end: end}
}

type view struct {
	c          Collection
	start, end int
}

func (v *view) Name() string {
	return fmt.Sprintf("%s[%d:%d]", v.c.Name(), v.start, v.end)
}

func (v *view) RecordSize() int { return v.c.RecordSize() }

func (v *view) Len() int { return v.end - v.start }

func (v *view) Append([]byte) error {
	return fmt.Errorf("storage: append to read-only view %q", v.Name())
}

func (v *view) Truncate() error {
	return fmt.Errorf("storage: truncate of read-only view %q", v.Name())
}

func (v *view) Close() error { return nil }

func (v *view) Destroy() error {
	return fmt.Errorf("storage: destroy of read-only view %q", v.Name())
}

func (v *view) Scan() Iterator { return v.ScanFrom(0) }

func (v *view) ScanFrom(start int) Iterator {
	if start < 0 {
		start = 0
	}
	abs := v.start + start
	if abs > v.end {
		abs = v.end
	}
	return Limit(v.c.ScanFrom(abs), v.end-abs)
}

// Limit bounds it to its next n records, in both its record and its
// chunk form: no call asks it for a record past the n-th, so a sliced
// input is read at the same granularity, and through the same block
// reads, as the collection it slices, and a stream cut at n records
// fetches nothing past them. Closing the bound closes it.
func Limit(it Iterator, n int) Iterator {
	return &limitIterator{it: it, remaining: n}
}

type limitIterator struct {
	it        Iterator
	ci        ChunkIterator // it's chunk form, resolved on first NextChunk
	remaining int
}

func (it *limitIterator) Next() ([]byte, error) {
	if it.remaining <= 0 {
		return nil, io.EOF
	}
	rec, err := it.it.Next()
	if err != nil {
		return nil, err
	}
	it.remaining--
	return rec, nil
}

// NextChunk implements ChunkIterator, clamping max to the records left
// so the underlying fetch never reaches a block past the bound.
func (it *limitIterator) NextChunk(max int) ([][]byte, error) {
	if it.remaining <= 0 {
		return nil, io.EOF
	}
	if max > it.remaining {
		max = it.remaining
	}
	if it.ci == nil {
		it.ci = Chunked(it.it)
	}
	recs, err := it.ci.NextChunk(max)
	if err != nil {
		return nil, err
	}
	it.remaining -= len(recs)
	return recs, nil
}

func (it *limitIterator) Close() error { return it.it.Close() }
