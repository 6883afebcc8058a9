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
	st    *stageAlloc   // the planner's stage: share, Open-time re-planning
	in    *sorts.Intake // fed: the intake the child emitted into
	stored
}

func (o *OrderBy) Name() string {
	return fmt.Sprintf("OrderBy[%s%s](%s)", o.algo.Name(), o.st.fedMark(), o.child.Name())
}
func (o *OrderBy) RecordSize() int      { return o.child.RecordSize() }
func (o *OrderBy) Children() []Operator { return []Operator{o.child} }
func (o *OrderBy) consumesMemory() bool { return true }

// intake runs the fed input side once, when the stage feeds
// (stageAlloc.feed): the child emits into the sort's intake, which o.in
// holds. Otherwise it does nothing and the input is sorted where it lies.
func (o *OrderBy) intake(ctx context.Context, ec *Ctx) error {
	a, fed := o.st.feed(o.algo)
	if !fed || o.in != nil {
		return nil
	}
	o.algo = a
	in, err := sorts.NewIntake(ec.stageEnv(o.st), o.child.RecordSize())
	if err != nil {
		return err
	}
	o.in = in
	return feedSort(ctx, ec, o.st, o.child, in, in)
}

// emitTo sorts the child's input — pushed, or materialized — into dst.
func (o *OrderBy) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if err := o.intake(ctx, ec); err != nil {
		return err
	}
	if o.in != nil {
		return o.in.MergeInto(dst)
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
	if err := o.intake(ctx, ec); err != nil {
		return err
	}
	return o.open(ctx, ec, "sorted", o.RecordSize(), o.in, nil, o.emitTo)
}

// Close also destroys the runs of an intake that was never merged.
func (o *OrderBy) Close() error {
	if o.in != nil {
		o.in.Discard()
	}
	return o.drop(o.child)
}
