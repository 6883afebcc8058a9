package exec

import (
	"context"
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/storage"
)

// The view placement of a chain (chain.go): a Stream over a source that
// is stored whatever the chain does — a base table, an OrderBy's sorted
// output — is deterministic and therefore re-scannable, so a blocking
// consumer can treat it as a read-only collection instead of draining it
// into a temporary. Every re-scan re-reads the source and re-runs the
// chain — trading cheap reads for expensive writes, which is the paper's
// trade — and the view writes nothing at all. Limit is never part of a
// view (it streams, and blocking consumers of a limit are rare enough
// that the pipe temp is fine).

// fuseView returns op's whole output as a collection when it exists
// without a drain: a collection source's own, or a chainView when op is
// a Stream over one. op must already be Open (blocking leaves hold
// their results). ctx bounds the view's count and every later scan.
func fuseView(ctx context.Context, ec *Ctx, op Operator) (storage.Collection, bool) {
	if s, ok := op.(*Stream); ok {
		base, ok := fuseView(ctx, ec, s.child)
		if !ok {
			return nil, false
		}
		return newChainView(ctx, base, &s.chain, ec.Factory.BlockSize()), true
	}
	if src, ok := op.(collectionSource); ok {
		return src.source()
	}
	return nil, false
}

// chainView is a chain over a stored collection, as a read-only
// collection. Scans pull the base at most one block's worth of records
// at a time, and never more than the consumer asked for, so a scan that
// stops early has read exactly the base blocks a record-at-a-time scan
// to the same record would have, and serve the chain kernel's window
// over each pull. A projecting-only chain maps records 1:1: length and
// positional scans delegate to the base. A filtering chain's length is
// known once counted, and Len never scans: until then it is the base's,
// an upper bound. A consumer that sizes its work by the length counts
// it first (countInput: one read-only scan); a SelS stage has its first
// pass count it instead (Sort.sortStored), which reads the whole view
// anyway. Positional scans re-read the base from the start and discard
// the skipped survivors (reads, never writes). A selective predicate can
// walk arbitrarily many base records per call, so scans poll ctx like
// any kernel loop.
type chainView struct {
	ctx   context.Context // run-scoped: the view lives only within one Run
	chain *chain
	base  storage.Collection
	pull  int // base records per NextChunk: one block's worth
	n     int // the view's length; -1 until counted
}

func newChainView(ctx context.Context, base storage.Collection, c *chain, blockSize int) *chainView {
	v := &chainView{ctx: ctx, chain: c, base: base, pull: storage.ChunkRecords(blockSize, base.RecordSize()), n: -1}
	if len(c.preds) == 0 {
		v.n = base.Len()
	}
	return v
}

// count makes Len exact, counting the survivors with one read-only scan
// when nothing has yet; nothing needs projecting to be counted.
func (v *chainView) count() error {
	if v.n >= 0 {
		return nil
	}
	it := v.scan(&chain{preds: v.chain.preds}, 0)
	defer it.Close() //nolint:errcheck // read-only iterator teardown
	n := 0
	if err := storage.ForEach(it, v.pull, func([]byte) error { n++; return nil }); err != nil {
		return err
	}
	v.n = n
	return nil
}

// countInput makes c's Len exact when c is a view that was not counted.
func countInput(c storage.Collection) error {
	if v, ok := c.(*chainView); ok {
		return v.count()
	}
	return nil
}

func (v *chainView) readOnly(verb string) error {
	return fmt.Errorf("exec: %s of read-only view %q", verb, v.Name())
}

func (v *chainView) Append([]byte) error { return v.readOnly("append") }
func (v *chainView) Truncate() error     { return v.readOnly("truncate") }
func (v *chainView) Destroy() error      { return v.readOnly("destroy") }
func (v *chainView) Close() error        { return nil }

func (v *chainView) Name() string    { return v.base.Name() + v.chain.String() }
func (v *chainView) RecordSize() int { return v.chain.width(v.base.RecordSize()) }
func (v *chainView) Len() int {
	if v.n < 0 {
		return v.base.Len()
	}
	return v.n
}

func (v *chainView) Scan() storage.Iterator { return v.ScanFrom(0) }

func (v *chainView) ScanFrom(start int) storage.Iterator { return v.scan(v.chain, start) }

// scan iterates c's output over the base from its start-th record on.
func (v *chainView) scan(c *chain, start int) *chainIterator {
	if len(c.preds) == 0 {
		return newChainIterator(v.ctx, v.base.ScanFrom(start), c, v.base.RecordSize(), v.pull)
	}
	it := newChainIterator(v.ctx, v.base.Scan(), c, v.base.RecordSize(), v.pull)
	it.skip = max(start, 0)
	return it
}

// chainIterator is a storage.ChunkIterator: NextChunk serves what is
// left of the current window, refilled from one pull of the source at a
// time, and Next is its one-record case. It is the chain kernel's one
// loop: its source is a view's base, a Stream's child's stream, or the
// stream of a fed sort stage (Sort.Open). A refill asks the source for
// no more records than its reader asked, up to pull, so a bound above
// it (storage.Limit) stops the source's fetches too.
type chainIterator struct {
	ctx    context.Context
	it     storage.Iterator
	ci     storage.ChunkIterator // it's chunk form
	win    *window
	pull   int      // most source records per refill
	skip   int      // survivors still to discard before the first served record
	budget int      // source records until the next ctx poll
	recs   [][]byte // unserved rest of the window
}

// newChainIterator applies c to the raw-byte records of it, at most pull
// at a time, polling ctx. It allocates nothing a refill needs: a Stream
// that a view replaces (inputCollection) is opened but never pulled.
func newChainIterator(ctx context.Context, it storage.Iterator, c *chain, raw, pull int) *chainIterator {
	return &chainIterator{ctx: ctx, it: it, ci: storage.Chunked(it), win: c.newWindow(raw), pull: pull, budget: algo.PollInterval}
}

func (it *chainIterator) NextChunk(n int) ([][]byte, error) {
	n = max(n, 1)
	for len(it.recs) == 0 {
		ask := min(it.pull, n)
		if it.budget -= ask; it.budget <= 0 {
			it.budget = algo.PollInterval
			if err := it.ctx.Err(); err != nil {
				return nil, err
			}
		}
		recs, err := it.ci.NextChunk(ask)
		if err != nil {
			return nil, err
		}
		recs = it.win.run(recs)
		k := min(it.skip, len(recs))
		it.recs, it.skip = recs[k:], it.skip-k
	}
	n = min(n, len(it.recs))
	recs := it.recs[:n]
	it.recs = it.recs[n:]
	return recs, nil
}

func (it *chainIterator) Next() ([]byte, error) {
	recs, err := it.NextChunk(1)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

func (it *chainIterator) Close() error { return it.it.Close() }
