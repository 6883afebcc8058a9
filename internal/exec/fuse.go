package exec

import (
	"context"
	"fmt"
	"io"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Fusion, consumer side: a Filter/Project chain over an input that
// exists whatever the chain does — a base table, an OrderBy's sorted
// output, a Materialize barrier — is deterministic and therefore
// re-scannable, so a blocking consumer can treat it as a read-only
// collection view instead of draining it into a temporary. Every re-scan
// recomputes the transformation and re-reads the base — trading cheap
// reads for expensive writes, which is the paper's trade — and the view
// writes nothing at all. A chain over a Join, GroupBy or HashAggregate
// never gets here: the compiler folds it into that operator, which
// applies it once as it emits (chain.go) — there a write does happen,
// and narrowing it beats re-reading it wide. Limit is not fused (its
// operator form already streams, and blocking consumers of a limit are
// rare enough that the pipe temp is fine).

// fuseView converts a streaming chain over a materialized source into a
// re-scannable view. The chain's operators must already be Open (their
// blocking leaves hold the materialized collections). Counting a
// filter's length costs one read-only scan, done eagerly here so Len
// stays error-free. ctx bounds that scan and every later re-scan: a
// filter view over a huge base with a selective predicate can walk
// arbitrarily many records per Next, so its loops poll like any kernel.
func fuseView(ctx context.Context, op Operator) (storage.Collection, bool, error) {
	switch o := op.(type) {
	case *Filter:
		base, ok, err := fuseView(ctx, o.child)
		if !ok || err != nil {
			return nil, ok, err
		}
		v := &filterView{ctx: ctx, base: base, pred: o.pred, match: o.pred.matcher()}
		n, err := v.count()
		if err != nil {
			return nil, false, err
		}
		v.n = n
		return v, true, nil
	case *Project:
		base, ok, err := fuseView(ctx, o.child)
		if !ok || err != nil {
			return nil, ok, err
		}
		return &projectView{base: base, attrs: o.attrs}, true, nil
	case collectionSource:
		c, ok := o.source()
		return c, ok, nil
	}
	return nil, false, nil
}

// readOnly is the error fused views return from mutating methods.
func readOnly(verb, name string) error {
	return fmt.Errorf("exec: %s of read-only view %q", verb, name)
}

// projectView is the fused form of Project: records map 1:1, so length
// and positional scans delegate straight to the base.
type projectView struct {
	base  storage.Collection
	attrs []int
}

func (v *projectView) Append([]byte) error { return readOnly("append", v.Name()) }
func (v *projectView) Truncate() error     { return readOnly("truncate", v.Name()) }
func (v *projectView) Destroy() error      { return readOnly("destroy", v.Name()) }
func (v *projectView) Close() error        { return nil }

func (v *projectView) Name() string {
	return fmt.Sprintf("project%v(%s)", v.attrs, v.base.Name())
}
func (v *projectView) RecordSize() int { return len(v.attrs) * record.AttrSize }
func (v *projectView) Len() int        { return v.base.Len() }

func (v *projectView) Scan() storage.Iterator { return v.ScanFrom(0) }

func (v *projectView) ScanFrom(start int) storage.Iterator {
	return &projectIterator{it: v.base.ScanFrom(start), attrs: v.attrs, buf: make([]byte, v.RecordSize())}
}

type projectIterator struct {
	it    storage.Iterator
	attrs []int
	buf   []byte
}

func (it *projectIterator) Next() ([]byte, error) {
	rec, err := it.it.Next()
	if err != nil {
		return nil, err
	}
	projectInto(it.buf, rec, it.attrs)
	return it.buf, nil
}

func (it *projectIterator) Close() error { return it.it.Close() }

// filterView is the fused form of Filter. Length is counted once at
// construction; positional scans re-read the base from the start and
// discard the skipped prefix (reads, never writes). The predicate's
// comparison switch is specialized once (see Predicate.matcher), so the
// per-record work of every scan is one load and one compare.
type filterView struct {
	ctx   context.Context // run-scoped: the view lives only within one Run (see fuseView)
	base  storage.Collection
	pred  Predicate
	match func(rec []byte) bool
	n     int
}

func (v *filterView) Append([]byte) error { return readOnly("append", v.Name()) }
func (v *filterView) Truncate() error     { return readOnly("truncate", v.Name()) }
func (v *filterView) Destroy() error      { return readOnly("destroy", v.Name()) }
func (v *filterView) Close() error        { return nil }

func (v *filterView) Name() string {
	return fmt.Sprintf("filter[%s](%s)", v.pred, v.base.Name())
}
func (v *filterView) RecordSize() int { return v.base.RecordSize() }
func (v *filterView) Len() int        { return v.n }

func (v *filterView) count() (int, error) {
	it := v.base.Scan()
	defer it.Close()
	n, budget := 0, algo.PollInterval
	for {
		if budget--; budget <= 0 {
			budget = algo.PollInterval
			if err := v.ctx.Err(); err != nil {
				return 0, err
			}
		}
		rec, err := it.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if v.match(rec) {
			n++
		}
	}
}

func (v *filterView) Scan() storage.Iterator { return v.ScanFrom(0) }

func (v *filterView) ScanFrom(start int) storage.Iterator {
	return &filterIterator{ctx: v.ctx, it: v.base.Scan(), match: v.match, skip: start}
}

type filterIterator struct {
	ctx   context.Context
	it    storage.Iterator
	match func(rec []byte) bool
	skip  int
}

func (it *filterIterator) Next() ([]byte, error) {
	budget := algo.PollInterval
	for {
		if budget--; budget <= 0 {
			budget = algo.PollInterval
			if err := it.ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := it.it.Next()
		if err != nil {
			return nil, err
		}
		if !it.match(rec) {
			continue
		}
		if it.skip > 0 {
			it.skip--
			continue
		}
		return rec, nil
	}
}

func (it *filterIterator) Close() error { return it.it.Close() }
