package exec

import (
	"context"
	"fmt"

	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// OrderBy sorts its input by the record total order (key attribute,
// full-byte tiebreak) with one of the paper's sort algorithms. Blocking:
// it claims one stage share of the plan budget, reads its child's result
// where that lives — or, when the result would be stored only for it to
// read and the stage prices that dearer, has the child emit into its
// sort's intake (feedSort) — and, at the plan root, sorts straight into
// the output collection.
type OrderBy struct {
	child Operator
	algo  sorts.Algorithm
	st    *stageAlloc // the planner's stage: share, Open-time re-planning
	stored
}

func (o *OrderBy) Name() string {
	return fmt.Sprintf("OrderBy[%s%s](%s)", o.algo.Name(), o.st.fedMark(), o.child.Name())
}
func (o *OrderBy) RecordSize() int      { return o.child.RecordSize() }
func (o *OrderBy) Children() []Operator { return []Operator{o.child} }
func (o *OrderBy) consumesMemory() bool { return true }

// emitTo runs the sort of the child's input — pushed, or materialized —
// into dst.
func (o *OrderBy) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if a, fed := o.st.feed(o.algo); fed {
		o.algo = a
		in, err := sorts.NewIntake(ec.stageEnv(o.st), o.child.RecordSize())
		if err != nil {
			return err
		}
		return feedSort(ctx, ec, o.st, o.child, in, in, dst)
	}
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
	return o.fill(ctx, ec, "sorted", o.RecordSize(), o.emitTo)
}

func (o *OrderBy) Close() error { return o.drop(o.child) }
