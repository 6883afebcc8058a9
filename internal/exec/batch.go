package exec

import (
	"context"
	"io"

	"wlpm/internal/storage"
)

// DefaultBatchSize is the records-per-Next window operators use when the
// context does not set one. ~1K records keeps the per-batch costs
// (virtual dispatch, context polls, selection branches) three orders of
// magnitude below the per-record work while the window of an 80-byte
// schema still fits comfortably in L2.
const DefaultBatchSize = 1024

// Batch is the unit of exchange of the vectorized Operator contract: a
// window of up to Ctx.BatchSize records in stream order. Batches are
// never empty — an exhausted stream returns io.EOF instead.
//
// Ownership: the producing operator owns the batch. Recs and the bytes
// they point into are only valid until the producer's next Next or Close
// call; consumers copy what they retain. Streaming operators are allowed
// to alias their child's batch (Stream and Limit return selection views
// into the child's records), so the window a consumer holds may reach
// all the way down to a scan's block — on blocked memory the device
// bytes themselves, so nothing writes through a batch — and the rule is
// the same either way: one live batch per operator, invalidated by the
// next pull.
type Batch struct {
	// Recs holds the record views of the batch, in stream order.
	Recs [][]byte

	views [][]byte // capacity-strided views over buf for owned batches
	buf   []byte
}

// Len is the number of records in the batch.
func (b *Batch) Len() int { return len(b.Recs) }

// newBatch returns an owned batch backed by its own buffer, holding up
// to n records of recSize bytes.
func newBatch(recSize, n int) *Batch {
	if n < 1 {
		n = 1
	}
	b := &Batch{buf: make([]byte, recSize*n), views: make([][]byte, n)}
	for i := range b.views {
		b.views[i] = b.buf[i*recSize : (i+1)*recSize]
	}
	return b
}

// limitHinted is the optional operator extension behind Limit: the hint
// promises that at most n more records will be consumed from the
// operator, so hinted producers stop fetching input past the n-th record
// and the engine's simulated reads match the record-at-a-time engine,
// which stops pulling lazily. Operators whose output maps 1:1 onto a
// source (Scan, a projecting-only Stream, every stored result)
// propagate the hint; a filtering Stream re-hints its child before
// every pull with the records still needed, which bounds — but cannot
// byte-exactly match — the lazy engine's read-ahead.
type limitHinted interface {
	limitHint(n int)
}

// hintLimit forwards a limit hint to op if it accepts one.
func hintLimit(op Operator, n int) {
	if h, ok := op.(limitHinted); ok {
		h.limitHint(n)
	}
}

// batchScanner adapts a storage iterator to batch-valued pulls: the
// Next of every operator that streams a stored collection (Scan, and
// through stored every blocking operator's result). The batch aliases
// the iterator's chunk — for stored collections its blocks, in place
// on blocked memory, zero per-record copies; an iterator without a chunk form is read through
// storage's one-record adapter.
type batchScanner struct {
	it        storage.Iterator
	ch        storage.ChunkIterator // it's chunk form
	view      Batch
	size      int // max records per batch
	remaining int // records still wanted under a limit hint; -1 unbounded
}

func newBatchScanner(it storage.Iterator, batchSize int) *batchScanner {
	return &batchScanner{it: it, ch: storage.Chunked(it), size: max(batchSize, 1), remaining: -1}
}

// limit caps the scanner at n more records from now; the cap replaces
// any earlier one (parents re-hint as their own demand shrinks).
func (s *batchScanner) limit(n int) {
	if n >= 0 {
		s.remaining = n
	}
}

func (s *batchScanner) next() (*Batch, error) {
	if s.it == nil || s.remaining == 0 {
		return nil, io.EOF
	}
	n := s.size
	if s.remaining > 0 && s.remaining < n {
		n = s.remaining
	}
	recs, err := s.ch.NextChunk(n)
	if err != nil {
		return nil, err
	}
	if s.remaining > 0 {
		s.remaining -= len(recs)
	}
	s.view.Recs = recs
	return &s.view, nil
}

// Close closes the underlying iterator; further pulls return io.EOF.
func (s *batchScanner) Close() error {
	if s.it == nil {
		return nil
	}
	it := s.it
	s.it, s.ch = nil, nil
	return it.Close()
}

// stored is a result held in a temporary collection: the temp → scan →
// destroy half of every operator that stores what it produced (Sort,
// Join, Materialize, and the pipe under a blocking consumer of a stream).
// Operators embed it: fill is their Open, Next, limitHint and source are
// theirs as they stand, and drop is their Close. The value owns the temp
// from the moment fill creates it — nothing else destroys it. A Join or
// GroupBy whose consumer feeds (exec.go) is never filled: its emitTo is
// called with the consumer's intake, the embedded value stays empty, and
// drop only closes the children. Nor is a fed sort stage: its scan
// serves the intake's stream (Sort.Open), which drop closes, destroying
// the runs the stream owns.
type stored struct {
	tmp storage.Collection
	sc  *batchScanner
}

// fill creates the temp, has emit write the result into it, flushes it
// and opens the scan that Next serves. emit has a directEmitter's
// signature, because it is the operator's emitTo: a blocking operator
// fills its own temp exactly as it fills the plan output at the root.
// Kernels that close their output themselves are fine — Close is
// idempotent. On error the temp is already destroyed.
func (s *stored) fill(ctx context.Context, ec *Ctx, prefix string, recSize int,
	emit func(ctx context.Context, ec *Ctx, dst storage.Collection) error) error {
	tmp, err := ec.tempEnv().CreateTemp(prefix, recSize)
	if err != nil {
		return err
	}
	if err = emit(ctx, ec, tmp); err == nil {
		err = tmp.Close()
	}
	if err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	s.tmp, s.sc = tmp, newBatchScanner(tmp.Scan(), ec.batchSize())
	return nil
}

// fillFrom fills the value with child's whole stream; child is open.
func (s *stored) fillFrom(ctx context.Context, ec *Ctx, prefix string, child Operator) error {
	return s.fill(ctx, ec, prefix, child.RecordSize(), func(ctx context.Context, _ *Ctx, dst storage.Collection) error {
		return drain(ctx, child, dst.Append)
	})
}

func (s *stored) Next(context.Context) (*Batch, error) {
	if s.sc == nil {
		return nil, io.EOF
	}
	return s.sc.next()
}

// limitHint caps the reads of the stored result; producing it ran in
// full at Open, exactly like the record engine.
func (s *stored) limitHint(n int) {
	if s.sc != nil {
		s.sc.limit(n)
	}
}

func (s *stored) source() (storage.Collection, bool) { return s.tmp, s.tmp != nil }

// drop closes the scan, destroys the temp and closes the operators the
// result was produced from, keeping the first error. Idempotent.
func (s *stored) drop(children ...Operator) error {
	var first error
	if s.sc != nil {
		first = s.sc.Close()
		s.sc = nil
	}
	if s.tmp != nil {
		if err := s.tmp.Destroy(); err != nil && first == nil {
			first = err
		}
		s.tmp = nil
	}
	if err := closeAll(children...); err != nil && first == nil {
		first = err
	}
	return first
}

// Cursor adapts the batch contract back to record-at-a-time pulls: the
// compatibility shim for record-level consumers (the façade's Rows
// cursor, and any caller migrating from the pre-batch Operator
// interface). The record returned by Next is owned by the operator's
// current batch and only valid until the following call.
type Cursor struct {
	op Operator
	b  *Batch
	i  int
}

// NewCursor wraps an opened operator in a record-level cursor.
func NewCursor(op Operator) *Cursor { return &Cursor{op: op} }

// Next returns the next record, io.EOF at the end of the stream, or the
// context's error once ctx is cancelled.
func (c *Cursor) Next(ctx context.Context) ([]byte, error) {
	for c.b == nil || c.i >= c.b.Len() {
		b, err := c.op.Next(ctx)
		if err != nil {
			return nil, err
		}
		// The held batch is valid until the next pull, which replaces it.
		c.b, c.i = b, 0
	}
	rec := c.b.Recs[c.i]
	c.i++
	return rec, nil
}
