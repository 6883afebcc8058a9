package exec

import (
	"context"
	"fmt"

	"wlpm/internal/aggregate"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// GroupBy is the engine's write-limited aggregation: it groups its
// benchmark-schema input by key and aggregates one attribute
// (count/sum/min/max in the aggregate package's result slots), emitting
// one record per group in ascending key order — through the
// Filter/Project chain above it, when the compiler absorbed one. Fed,
// each input row enters a folding intake as its one-record partial
// aggregate, so a group resident in memory is written once however often
// it arrives, and when every group fits nothing but the result is
// written. Read where it lies, the input is sorted and the write profile
// is the chosen sort's runs plus the groups (the sorted input is folded
// as the sort emits it). Blocking.
type GroupBy struct {
	child Operator
	attr  int
	algo  sorts.Algorithm
	st    *stageAlloc   // the planner's stage: share, Open-time re-planning
	in    *sorts.Intake // fed: the folding intake the child emitted into
	chain               // applied to each group as it closes
	stored
}

func (g *GroupBy) Name() string {
	return fmt.Sprintf("GroupBy[a%d, %s%s%s](%s)", g.attr, g.algo.Name(), g.st.fedMark(), &g.chain, g.child.Name())
}
func (g *GroupBy) RecordSize() int      { return g.width(record.Size) }
func (g *GroupBy) Children() []Operator { return []Operator{g.child} }
func (g *GroupBy) consumesMemory() bool { return true }

// intake runs the fed input side once, when the stage feeds
// (stageAlloc.feed): the child emits into a folding intake, each row as
// its one-record partial aggregate, and g.in holds the intake. Otherwise
// it does nothing and the input is sorted where it lies.
func (g *GroupBy) intake(ctx context.Context, ec *Ctx) error {
	a, fed := g.st.feed(g.algo)
	if !fed || g.in != nil {
		return nil
	}
	g.algo = a
	in, err := sorts.NewFoldingIntake(ec.stageEnv(g.st), record.Size, aggregate.Combine)
	if err != nil {
		return err
	}
	g.in = in
	buf := make([]byte, record.Size)
	partials := storage.NewSink("partials", record.Size, func(rec []byte) error {
		aggregate.Singleton(buf, rec, g.attr)
		return in.Append(buf)
	}, nil)
	return feedSort(ctx, ec, g.st, g.child, in, partials)
}

// emitTo aggregates the child's input — pushed, or materialized — into
// dst through the chain: merged from the intake, or folded as the sort of
// the materialized input emits it.
func (g *GroupBy) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if err := g.intake(ctx, ec); err != nil {
		return err
	}
	if g.in != nil {
		return g.in.MergeInto(g.sink(dst, record.Size))
	}
	in, cleanup, err := inputCollection(ctx, ec, g.child)
	if err != nil {
		return err
	}
	// Clamp the compile-time estimate against the materialized input:
	// the stage's budget share is re-split from the actuals, then the
	// sort choice is re-priced (and, when the planner owns it, re-made).
	g.algo = g.st.openSort(in, g.algo)
	if err := aggregate.GroupBy(ec.stageEnv(g.st), g.algo, in, g.attr, g.sink(dst, record.Size)); err != nil {
		cleanup() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return cleanup()
}

func (g *GroupBy) Open(ctx context.Context, ec *Ctx) error {
	if err := g.intake(ctx, ec); err != nil {
		return err
	}
	return g.open(ctx, ec, "grouped", g.RecordSize(), g.in, &g.chain, g.emitTo)
}

// Close also destroys the runs of an intake that was never merged.
func (g *GroupBy) Close() error {
	if g.in != nil {
		g.in.Discard()
	}
	return g.drop(g.child)
}
