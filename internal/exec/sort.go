package exec

import (
	"context"
	"fmt"

	"wlpm/internal/aggregate"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// Sort is the engine's one sort stage, rendered OrderBy or GroupBy. An
// OrderBy sorts its input by the record total order (key attribute,
// full-byte tiebreak) with one of the paper's sort algorithms. A GroupBy
// is the same sort with a combine: each benchmark-schema row enters as
// its one-row partial aggregate of attribute attr (aggregate.PartialSize
// bytes), and the kernels combine equal keys, so it emits one record per
// group in key order, widened to its result record as it leaves —
// through the chain above it, when the compiler absorbed one (an OrderBy
// absorbs none: its final merge is range-parallel at P > 1). Blocking: it
// claims one stage share and reads its child's result where that lives,
// or has the child emit into its intake when that prices cheaper.
type Sort struct {
	child Operator
	attr  int // GroupBy: the aggregated attribute; -1 for an OrderBy
	algo  sorts.Algorithm
	st    *stageAlloc   // the planner's stage: share, Open-time re-planning
	in    *sorts.Intake // fed: the intake the child emitted into
	chain               // GroupBy: applied to each group as it closes
	stored
}

func (s *Sort) grouping() bool { return s.attr >= 0 }

// Name renders the stage with its algorithm, the bound a SelS stage
// writes no more than (`OrderBy[SelS ≤100]`), the fed mark and the chain.
func (s *Sort) Name() string {
	op := "OrderBy["
	if s.grouping() {
		op = fmt.Sprintf("GroupBy[a%d, ", s.attr)
	}
	var bound string
	if n := s.st.take(); n >= 0 && sorts.Selects(s.algo) {
		bound = fmt.Sprintf(" ≤%d", n)
	}
	return fmt.Sprintf("%s%s%s%s%s](%s)", op, s.algo.Name(), bound, s.st.fedMark(), &s.chain, s.child.Name())
}
func (s *Sort) RecordSize() int      { return s.width(s.child.RecordSize()) }
func (s *Sort) Children() []Operator { return []Operator{s.child} }
func (s *Sort) consumesMemory() bool { return true }

// absorbed is the chain a GroupBy applies as it emits; an OrderBy has none.
func (s *Sort) absorbed() *chain {
	if !s.grouping() {
		return nil
	}
	return &s.chain
}

// intake runs the fed input side once, when the stage feeds: the child
// emits into the sort's intake (a GroupBy's takes each row as its partial
// and folds), never into a temp. pulled says Open will end it in its
// reader (Stream) rather than emitTo in a collection (MergeInto). The
// intake owns its runs: a failed producer has them swept here, a failed
// merge sweeps its own, and Close one that never ended.
func (s *Sort) intake(ctx context.Context, ec *Ctx, pulled bool) error {
	a, fed := s.st.feed(s.algo)
	if !fed || s.in != nil {
		return nil
	}
	s.algo = a
	recSize := s.child.RecordSize()
	var combine func(dst, src []byte)
	if s.grouping() {
		recSize, combine = aggregate.PartialSize, aggregate.Combine
	}
	in, err := sorts.NewIntake(ec.stageEnv(s.st), recSize, combine, pulled)
	if err != nil {
		return err
	}
	s.in = in
	var take storage.Collection = in
	if s.grouping() {
		take = aggregate.Feed(in, s.attr)
	}
	if err := pour(ctx, ec, s.child, take); err != nil {
		in.Discard()
		return err
	}
	s.st.fedRows(in.Len(), s.child.RecordSize())
	return nil
}

// results is where the stage's sort emits into dst: through the chain,
// and for a GroupBy first widened from the partials it merges to their
// result records (aggregate.Results).
func (s *Sort) results(dst storage.Collection) storage.Collection {
	out := s.sink(dst, s.child.RecordSize())
	if s.grouping() {
		out = aggregate.Results(out)
	}
	return out
}

// emitTo sorts the child's input — pushed, or materialized — into dst
// through the chain: merged from the intake, or sorted where it lies.
func (s *Sort) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if err := s.intake(ctx, ec, false); err != nil {
		return err
	}
	out := s.results(dst)
	if s.in != nil {
		return s.in.MergeInto(out)
	}
	in, cleanup, err := inputCollection(ctx, ec, s.child)
	if err != nil {
		return err
	}
	if err := s.sortStored(ec, in, out); err != nil {
		cleanup() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return cleanup()
}

// sortStored sorts in, the stored input, into out — a GroupBy's as its
// partials, with the combine. The stage opens once in's length is known:
// the compile-time estimate is clamped against it, and the choice
// re-priced at the stage's share (and, when the planner owns it,
// re-made). A view not yet counted under a SelS stage is counted by
// SelS's first pass, which reads it whole anyway and writes nothing
// (sorts.SortCounting): the stage opens before that pass's batch is
// emitted, and a re-made choice sorts from the start. Any other input is
// counted first. A bounded SelS stage writes only the rows its limit
// takes (sorts.SortTop).
func (s *Sort) sortStored(ec *Ctx, in, out storage.Collection) error {
	env := ec.stageEnv(s.st)
	src := in
	var combine func(dst, src []byte)
	if s.grouping() {
		var err error
		if src, err = aggregate.Partials(in, s.attr); err != nil {
			return err
		}
		combine = aggregate.Combine
	}
	open := func() sorts.Algorithm {
		s.algo = s.st.openSort(in, s.algo)
		return s.algo
	}
	if v, ok := in.(*chainView); ok && v.n < 0 && sorts.Selects(s.algo) {
		return sorts.SortCounting(env, src, out, combine, s.st.take(), func(rows int) sorts.Algorithm {
			v.n = rows
			return open()
		})
	}
	if err := countInput(in); err != nil {
		return err
	}
	return sorts.SortTop(env, open(), src, out, combine, s.st.take())
}

// Open runs the stage and returns its result's stream. A fed stage ends
// in its reader: it serves the intake's stream — its heap, or the pull
// merge of its last runs — through the chain, and no result temp is
// written. A stored input fills the temp with emitTo.
func (s *Sort) Open(ctx context.Context, ec *Ctx) (storage.Iterator, error) {
	if err := s.intake(ctx, ec, true); err != nil {
		return nil, err
	}
	if s.in != nil {
		it, err := s.in.Stream()
		if err != nil {
			return nil, err
		}
		if s.grouping() {
			it = aggregate.ResultsOf(it)
		}
		if !s.chain.empty() {
			it = newChainIterator(ctx, it, &s.chain, s.child.RecordSize(), ec.PullSize())
		}
		s.it = it
		return it, nil
	}
	prefix := "sorted"
	if s.grouping() {
		prefix = "grouped"
	}
	return s.fill(ctx, ec, prefix, s.RecordSize(), s.emitTo)
}

// Close also destroys the runs of an intake that was never ended; drop
// closes a stream, with the runs it owns.
func (s *Sort) Close() error {
	if s.in != nil {
		s.in.Discard()
	}
	return s.drop(s.child)
}
