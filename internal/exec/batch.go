package exec

import (
	"context"

	"wlpm/internal/storage"
)

// DefaultBatchSize is the records-per-pull window operators use when the
// context does not set one. ~1K records keeps the per-pull costs
// (interface dispatch, context polls, selection branches) three orders
// of magnitude below the per-record work while the window of an 80-byte
// schema still fits comfortably in L2.
const DefaultBatchSize = 1024

// drain reads it to the end, Ctx.PullSize records per pull, feeding
// each record to emit and polling the run's context every
// algo.PollInterval records: the loop that runs a stream into the plan
// output, a pipe or a consumer's intake.
func drain(ec *Ctx, it storage.Iterator, emit func(rec []byte) error) error {
	return storage.ForEach(it, ec.PullSize(), ec.tempEnv().Polled(emit))
}

// stored is a result held in a temporary collection: the temp → scan →
// destroy half of every operator that stores what it produced (Sort,
// Join, Materialize, and the pipe under a blocking consumer of a stream).
// Operators embed it: fill is their Open, returning the temp's scan as
// the operator's stream, source is theirs as it stands, and drop is
// their Close; the pipe, read as a collection, is only stored. The value
// owns the temp from the moment fill creates it — nothing else destroys
// it. A Join or GroupBy whose consumer feeds
// (exec.go) is never filled: its emitTo is called with the consumer's
// intake, the embedded value stays empty, and drop only closes the
// children. Nor is a fed sort stage: it serves its intake's stream
// (Sort.Open), which drop closes, destroying the runs the stream owns.
type stored struct {
	tmp storage.Collection
	it  storage.Iterator // the stream Open returned: the temp's scan, or a fed sort's
}

// fill creates the temp, has emit write the result into it, flushes it
// and returns its scan. emit has a directEmitter's signature, because it
// is the operator's emitTo: a blocking operator fills its own temp
// exactly as it fills the plan output at the root. Kernels that close
// their output themselves are fine — Close is idempotent. On error the
// temp is already destroyed.
func (s *stored) fill(ctx context.Context, ec *Ctx, prefix string, recSize int,
	emit func(ctx context.Context, ec *Ctx, dst storage.Collection) error) (storage.Iterator, error) {
	if err := s.store(ctx, ec, prefix, recSize, emit); err != nil {
		return nil, err
	}
	s.it = s.tmp.Scan()
	return s.it, nil
}

// store is fill without the scan, for a consumer that reads the temp as
// a collection (the pipe, inputCollection).
func (s *stored) store(ctx context.Context, ec *Ctx, prefix string, recSize int,
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
	s.tmp = tmp
	return nil
}

// drainOf is the emit that stores src, an opened operator's stream.
func drainOf(src storage.Iterator) func(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	return func(_ context.Context, ec *Ctx, dst storage.Collection) error {
		return drain(ec, src, dst.Append)
	}
}

func (s *stored) source() (storage.Collection, bool) { return s.tmp, s.tmp != nil }

// drop closes the stream, destroys the temp and closes the operators the
// result was produced from, keeping the first error. Idempotent.
func (s *stored) drop(children ...Operator) error {
	var first error
	if s.it != nil {
		first = s.it.Close()
		s.it = nil
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
