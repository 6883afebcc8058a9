// Package aggregate is the algebra of the engine's write-limited
// group-by (the paper's §6 names aggregation as the next operation to
// make write-limited). A group-by is a sort with a combine
// (sorts.SortFolding, or a fed sorts.Intake): each row enters as its
// one-row partial aggregate — through the Partials view of a stored
// input, or the Feed sink in front of an intake — and the sort's kernels
// merge the partials of equal keys with Combine wherever they hold
// records, so only the groups are written. A partial is the result
// record's five aggregate slots and nothing else (PartialSize, half the
// benchmark record): a sort holds, writes and merges only those, and a
// group is widened to its result record once, where it leaves the sort
// (Results on the emit side, ResultsOf on a reader's).
package aggregate

import (
	"fmt"

	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Result is the output schema: one record per group with the benchmark
// record layout, carrying the aggregates in fixed attribute slots.
const (
	AttrGroupKey = 0 // the group key
	AttrCount    = 1 // number of records in the group
	AttrSum      = 2 // Σ of the aggregated attribute
	AttrMin      = 3 // minimum of the aggregated attribute
	AttrMax      = 4 // maximum of the aggregated attribute
)

// PartialSize is the width of a partial aggregate: the result record's
// slots AttrGroupKey through AttrMax. Its result record, the benchmark
// record of the same five attributes with every other one zero, is
// twice as wide, so a sort of partials holds twice the groups in the
// same memory and writes half the bytes per partial it spills.
const PartialSize = (AttrMax + 1) * record.AttrSize

// Singleton renders into buf (PartialSize bytes) the partial aggregate
// of one benchmark record: its group key with attribute attr's value
// counted once.
func Singleton(buf, rec []byte, attr int) {
	v := record.Attr(rec, attr)
	record.SetAttr(buf, AttrGroupKey, record.Key(rec))
	record.SetAttr(buf, AttrCount, 1)
	record.SetAttr(buf, AttrSum, v)
	record.SetAttr(buf, AttrMin, v)
	record.SetAttr(buf, AttrMax, v)
}

// Combine merges the partial aggregate src into the partial dst of the
// same group, in place — counts and sums add, min and max fold. A partial
// is never empty (Singleton counts its row), so min and max fold without
// a count check.
func Combine(dst, src []byte) {
	record.SetAttr(dst, AttrCount, record.Attr(dst, AttrCount)+record.Attr(src, AttrCount))
	record.SetAttr(dst, AttrSum, record.Attr(dst, AttrSum)+record.Attr(src, AttrSum))
	if lo := record.Attr(src, AttrMin); lo < record.Attr(dst, AttrMin) {
		record.SetAttr(dst, AttrMin, lo)
	}
	if hi := record.Attr(src, AttrMax); hi > record.Attr(dst, AttrMax) {
		record.SetAttr(dst, AttrMax, hi)
	}
}

// Partials returns in, a collection of benchmark-schema rows, as a
// read-only collection of their Singleton partials aggregating attribute
// attr, PartialSize bytes each. A scan renders each row once, where it
// is read, and issues exactly in's block reads, whole or sliced.
func Partials(in storage.Collection, attr int) (storage.Collection, error) {
	if attr < 0 || attr >= record.NumAttrs {
		return nil, fmt.Errorf("aggregate: attribute %d out of schema (0..%d)", attr, record.NumAttrs-1)
	}
	if in.RecordSize() != record.Size {
		return nil, fmt.Errorf("aggregate: benchmark-schema records required (%d bytes)", record.Size)
	}
	return partials{in, attr}, nil
}

// Feed is Partials' push side, for a caller that has validated attr and
// the rows' width: a write-only collection (storage.Sink) of benchmark
// rows that renders each appended row as its Singleton partial, once,
// and appends that to dst — a folding sorts.Intake of PartialSize
// records.
func Feed(dst storage.Collection, attr int) storage.Collection {
	buf := make([]byte, PartialSize)
	return storage.NewSink("partials", record.Size, func(rec []byte) error {
		Singleton(buf, rec, attr)
		return dst.Append(buf)
	}, nil)
}

// partials is the rows' collection for its name, length and scans.
type partials struct {
	storage.Collection
	attr int
}

func (p partials) RecordSize() int { return PartialSize }

func (p partials) readOnly(verb string) error {
	return fmt.Errorf("aggregate: %s of the read-only partials of %q", verb, p.Name())
}

func (p partials) Append([]byte) error { return p.readOnly("append") }
func (p partials) Truncate() error     { return p.readOnly("truncate") }
func (p partials) Destroy() error      { return p.readOnly("destroy") }

func (p partials) Scan() storage.Iterator { return p.ScanFrom(0) }

func (p partials) ScanFrom(start int) storage.Iterator {
	it := p.Collection.ScanFrom(start)
	return &partialIter{Iterator: it, rows: storage.Chunked(it), attr: p.attr}
}

// partialIter renders each chunk of rows into views of a buffer it owns,
// grown to the largest chunk asked for and valid until the next call;
// Next is NextChunk's one-record case.
type partialIter struct {
	storage.Iterator
	rows storage.ChunkIterator
	attr int
	recs [][]byte
}

func (it *partialIter) NextChunk(n int) ([][]byte, error) {
	rows, err := it.rows.NextChunk(n)
	if err != nil {
		return nil, err
	}
	it.recs = views(it.recs, len(rows), PartialSize)
	for i, row := range rows {
		Singleton(it.recs[i], row, it.attr)
	}
	return it.recs[:len(rows)], nil
}

func (it *partialIter) Next() ([]byte, error) {
	recs, err := it.NextChunk(1)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// Results is the emit side's widening: a write-only collection of
// partials — what a folding sort merges into — that appends each
// partial's result record to dst, a collection of benchmark records,
// and closes dst when it is closed.
func Results(dst storage.Collection) storage.Collection {
	var res [record.Size]byte
	return storage.NewSink("results("+dst.Name()+")", PartialSize, func(p []byte) error {
		return dst.Append(widen(res[:], p))
	}, dst.Close)
}

// ResultsOf is Results on a reader's side: it, an iterator over partials
// (a folding intake's stream), as an iterator over their result records.
// A chunk is widened into views of a buffer the iterator owns, grown to
// the largest chunk asked for and valid until the next call.
func ResultsOf(it storage.Iterator) storage.Iterator {
	return &resultIter{Iterator: it, parts: storage.Chunked(it)}
}

type resultIter struct {
	storage.Iterator
	parts storage.ChunkIterator
	recs  [][]byte
}

func (it *resultIter) NextChunk(n int) ([][]byte, error) {
	parts, err := it.parts.NextChunk(n)
	if err != nil {
		return nil, err
	}
	it.recs = views(it.recs, len(parts), record.Size)
	for i, p := range parts {
		widen(it.recs[i], p)
	}
	return it.recs[:len(parts)], nil
}

func (it *resultIter) Next() ([]byte, error) {
	recs, err := it.NextChunk(1)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// widen renders the partial p as its group's result record in buf
// (record.Size bytes): its five slots, every other attribute zero.
func widen(buf, p []byte) []byte {
	copy(buf, p)
	clear(buf[PartialSize:])
	return buf
}

// views grows recs to at least n views of size bytes each, backed by one
// new slab whenever it grows, and returns it.
func views(recs [][]byte, n, size int) [][]byte {
	if len(recs) >= n {
		return recs
	}
	slab := make([]byte, n*size)
	recs = make([][]byte, n)
	for i := range recs {
		recs[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	return recs
}
