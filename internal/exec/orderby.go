package exec

import (
	"context"
	"fmt"
	"io"

	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// OrderBy sorts its input by the record total order (key attribute,
// full-byte tiebreak) with one of the paper's sort algorithms. Blocking:
// it claims one stage share of the plan budget, materializes its child
// if the child is not already a collection, and — at the plan root —
// sorts straight into the output collection.
type OrderBy struct {
	child  Operator
	algo   sorts.Algorithm
	st     *stageAlloc // the planner's stage: share, Open-time re-planning
	sorted storage.Collection
	sc     *batchScanner
}

func (o *OrderBy) Name() string {
	return fmt.Sprintf("OrderBy[%s](%s)", o.algo.Name(), o.child.Name())
}
func (o *OrderBy) RecordSize() int      { return o.child.RecordSize() }
func (o *OrderBy) Children() []Operator { return []Operator{o.child} }
func (o *OrderBy) consumesMemory() bool { return true }

// sortInto runs the sort of the child's materialized input into dst.
func (o *OrderBy) sortInto(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	in, cleanup, err := inputCollection(ctx, ec, o.child)
	if err != nil {
		return err
	}
	// Clamp the compile-time estimate against the materialized input:
	// the stage's budget share is re-split from the actuals, then the
	// choice is re-priced (and, when the planner owns it, re-made).
	o.algo = o.st.openSort(in, o.algo)
	if err := o.algo.Sort(ec.stageEnv(o.st), in, dst); err != nil {
		cleanup() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return cleanup()
}

func (o *OrderBy) Open(ctx context.Context, ec *Ctx) error {
	tmp, err := ec.tempEnv().CreateTemp("sorted", o.RecordSize())
	if err != nil {
		return err
	}
	if err := o.sortInto(ctx, ec, tmp); err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	o.sorted = tmp
	o.sc = newBatchScanner(tmp.Scan(), tmp.RecordSize(), ec.batchSize())
	return nil
}

func (o *OrderBy) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	return o.sortInto(ctx, ec, out)
}

func (o *OrderBy) Next(context.Context) (*Batch, error) {
	if o.sc == nil {
		return nil, io.EOF
	}
	return o.sc.next()
}

// limitHint caps the reads of the sorted result; the sort itself ran in
// full at Open, exactly like the record engine.
func (o *OrderBy) limitHint(n int) {
	if o.sc != nil {
		o.sc.limit(n)
	}
}

func (o *OrderBy) Close() error {
	var first error
	if o.sc != nil {
		first = o.sc.Close()
		o.sc = nil
	}
	if o.sorted != nil {
		if err := o.sorted.Destroy(); err != nil && first == nil {
			first = err
		}
		o.sorted = nil
	}
	if err := o.child.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (o *OrderBy) source() (storage.Collection, bool) { return o.sorted, o.sorted != nil }
