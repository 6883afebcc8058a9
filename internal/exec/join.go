package exec

import (
	"context"
	"fmt"
	"io"

	"wlpm/internal/joins"
	"wlpm/internal/storage"
)

// Join equi-joins its two inputs on their key attributes (attribute 0 of
// each side) with one of the paper's join algorithms, emitting
// left‖right concatenations — through the Filter/Project chain above it,
// when the compiler absorbed one, so only the rows and columns the
// consumer keeps are ever written. The left input is the build side —
// plans put the smaller input left. Blocking: one stage share of the
// budget; at the plan root it joins straight into the output collection.
type Join struct {
	left, right Operator
	algo        joins.Algorithm
	st          *stageAlloc // the planner's stage: share, Open-time re-planning
	emitChain               // applied as the algorithm emits
	joined      storage.Collection
	sc          *batchScanner
}

func (j *Join) Name() string {
	return fmt.Sprintf("Join[%s%s](%s, %s)", j.algo.Name(), &j.emitChain, j.left.Name(), j.right.Name())
}
func (j *Join) rawSize() int         { return j.left.RecordSize() + j.right.RecordSize() }
func (j *Join) RecordSize() int      { return j.width(j.rawSize()) }
func (j *Join) Children() []Operator { return []Operator{j.left, j.right} }
func (j *Join) consumesMemory() bool { return true }

func (j *Join) joinInto(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	lcoll, lclean, err := inputCollection(ctx, ec, j.left)
	if err != nil {
		return err
	}
	rcoll, rclean, err := inputCollection(ctx, ec, j.right)
	if err != nil {
		lclean() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	// Clamp the compile-time estimates against the materialized inputs:
	// the stage's budget share is re-split from the actuals, then the
	// choice is re-priced (and, when the planner owns it, re-made).
	j.algo = j.st.openJoin(lcoll, rcoll, j.algo)
	if err := j.algo.Join(ec.stageEnv(j.st), lcoll, rcoll, j.sink(dst, j.rawSize())); err != nil {
		lclean() //nolint:errcheck // best-effort cleanup after failure
		rclean() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if err := lclean(); err != nil {
		return err
	}
	return rclean()
}

func (j *Join) Open(ctx context.Context, ec *Ctx) error {
	tmp, err := ec.tempEnv().CreateTemp("joined", j.RecordSize())
	if err != nil {
		return err
	}
	if err := j.joinInto(ctx, ec, tmp); err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	j.joined = tmp
	j.sc = newBatchScanner(tmp.Scan(), tmp.RecordSize(), ec.batchSize())
	return nil
}

func (j *Join) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	return j.joinInto(ctx, ec, out)
}

func (j *Join) Next(context.Context) (*Batch, error) {
	if j.sc == nil {
		return nil, io.EOF
	}
	return j.sc.next()
}

// limitHint caps the reads of the joined result; the join itself ran in
// full at Open, exactly like the record engine.
func (j *Join) limitHint(n int) {
	if j.sc != nil {
		j.sc.limit(n)
	}
}

func (j *Join) Close() error {
	var first error
	if j.sc != nil {
		first = j.sc.Close()
		j.sc = nil
	}
	if j.joined != nil {
		if err := j.joined.Destroy(); err != nil && first == nil {
			first = err
		}
		j.joined = nil
	}
	if err := closeAll(j.left, j.right); err != nil && first == nil {
		first = err
	}
	return first
}

func (j *Join) source() (storage.Collection, bool) { return j.joined, j.joined != nil }
