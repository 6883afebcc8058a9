package exec

import (
	"context"
	"fmt"

	"wlpm/internal/aggregate"
	"wlpm/internal/joins"
	"wlpm/internal/record"
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
	chain                   // applied as the algorithm emits
	stored
}

func (j *Join) Name() string {
	return fmt.Sprintf("Join[%s%s](%s, %s)", j.algo.Name(), &j.chain, j.left.Name(), j.right.Name())
}
func (j *Join) rawSize() int         { return j.left.RecordSize() + j.right.RecordSize() }
func (j *Join) RecordSize() int      { return j.width(j.rawSize()) }
func (j *Join) Children() []Operator { return []Operator{j.left, j.right} }
func (j *Join) consumesMemory() bool { return true }

// emitTo joins the materialized inputs into dst through the chain.
func (j *Join) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	lcoll, lclean, err := inputCollection(ctx, ec, j.left)
	if err != nil {
		return err
	}
	rcoll, rclean, err := inputCollection(ctx, ec, j.right)
	if err != nil {
		lclean() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if err := j.join(ec, lcoll, rcoll, dst); err != nil {
		lclean() //nolint:errcheck // best-effort cleanup after failure
		rclean() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if err := lclean(); err != nil {
		return err
	}
	return rclean()
}

// join joins the materialized inputs into dst. Every join sizes its work
// by their lengths, so a view among them is counted first; then the
// compile-time estimates are clamped against them and the choice
// re-priced at the stage's share (and, when the planner owns it,
// re-made).
func (j *Join) join(ec *Ctx, left, right, dst storage.Collection) error {
	if err := countInput(left); err != nil {
		return err
	}
	if err := countInput(right); err != nil {
		return err
	}
	j.algo = j.st.openJoin(left, right, j.algo)
	return j.algo.Join(ec.stageEnv(j.st), left, right, j.output(dst))
}

// output is what the join's algorithm emits into so that dst receives
// the chain's output. Unless the chain is empty, it is a joins.Pairs
// whose match function applies the chain to the two halves of each
// match; when dst is a fed group-by's intake (aggregate.Feeder), the
// function folds the match straight into it, so neither the joined row
// nor the chain's projection is built. Over the empty chain the join
// appends its joined rows to dst itself, and a left half that does not
// end on an attribute boundary leaves the chain to read those rows.
func (j *Join) output(dst storage.Collection) storage.Collection {
	lsize, rsize := j.left.RecordSize(), j.right.RecordSize()
	f, fold := dst.(*aggregate.Feeder)
	if !fold && j.chain.empty() || lsize%record.AttrSize != 0 {
		return j.sink(dst, lsize+rsize)
	}
	var match func(left, right []byte) error
	if fold {
		match = j.fold(lsize, f)
	} else {
		match = j.match(lsize, rsize, dst.Append)
	}
	return joins.NewPairs("emit("+dst.Name()+")", lsize, rsize, match, dst.Close)
}

func (j *Join) Open(ctx context.Context, ec *Ctx) (storage.Iterator, error) {
	return j.scan(j.storeResult(ctx, ec))
}

// storeResult fills the join's result temp.
func (j *Join) storeResult(ctx context.Context, ec *Ctx) (storage.Collection, error) {
	return j.store(ctx, ec, "joined", j.RecordSize(), j.emitTo)
}

func (j *Join) Close() error { return j.drop(j.left, j.right) }
