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

// stored is a result held in a temporary collection: the temp → scan →
// destroy half of every operator that stores what it produced (Sort,
// Join, Materialize, and the pipe under a blocking consumer of a stream).
// Operators embed it. A consumer that reads the result as a collection
// has the operator store it (storeResult, inputCollection) and reads the
// temp with no scan opened on it; a consumer that pulls it gets the
// temp's scan from Open. drop is the operator's Close. The value owns
// the temp from the moment store creates it — nothing else destroys it.
// A Join or GroupBy whose consumer feeds (exec.go) is never stored: its
// emitTo is called with the consumer's intake, the embedded value stays
// empty, and drop only closes the children. Nor is a fed sort stage: it
// serves its intake's stream (Sort.Open), which drop closes, destroying
// the runs the stream owns.
type stored struct {
	tmp storage.Collection
	it  storage.Iterator // the stream Open returned: the temp's scan, or a fed sort's
}

// scan is Open over a stored result: the scan of the temp store returned.
func (s *stored) scan(tmp storage.Collection, err error) (storage.Iterator, error) {
	if err != nil {
		return nil, err
	}
	s.it = tmp.Scan()
	return s.it, nil
}

// store creates the temp, has emit write the result into it, flushes it
// and returns it. emit has emitTo's signature, because it is the
// operator's emitTo (or pour of its child): a blocking operator fills
// its own temp exactly as it fills the plan output at the root. Kernels
// that close their output themselves are fine — Close is idempotent. On
// error the temp is already destroyed.
func (s *stored) store(ctx context.Context, ec *Ctx, prefix string, recSize int,
	emit func(ctx context.Context, ec *Ctx, dst storage.Collection) error) (storage.Collection, error) {
	tmp, err := ec.tempEnv().CreateTemp(prefix, recSize)
	if err != nil {
		return nil, err
	}
	if err = emit(ctx, ec, tmp); err == nil {
		err = tmp.Close()
	}
	if err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return nil, err
	}
	s.tmp = tmp
	return tmp, nil
}

// pourInto stores child's whole output, poured, in a temp under prefix:
// a pipe or a materialization barrier.
func (s *stored) pourInto(ctx context.Context, ec *Ctx, prefix string, child Operator) (storage.Collection, error) {
	return s.store(ctx, ec, prefix, child.RecordSize(), func(ctx context.Context, ec *Ctx, dst storage.Collection) error {
		return pour(ctx, ec, child, dst)
	})
}

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
