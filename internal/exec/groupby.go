package exec

import (
	"context"
	"fmt"
	"io"
	"sort"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// GroupBy is the sort-based write-limited aggregation: it groups its
// benchmark-schema input by key and aggregates one attribute
// (count/sum/min/max in the aggregate package's result slots), emitting
// one record per group in ascending key order — through the
// Filter/Project chain above it, when the compiler absorbed one. Over a
// stored input the write profile is the chosen sort algorithm's runs
// plus the groups (the sorted input is folded as the sort emits it,
// never written) — the planner places the same intensity knob it places
// for order-by. Fed, each input row enters a folding intake as its
// one-record partial aggregate, so a group resident in memory is written
// once however often it arrives, and the intake's merges emit the groups
// themselves. Blocking.
type GroupBy struct {
	child Operator
	attr  int
	algo  sorts.Algorithm
	st    *stageAlloc // the planner's stage: share, Open-time re-planning
	chain             // applied to each group as it closes
	stored
}

func (g *GroupBy) Name() string {
	return fmt.Sprintf("GroupBy[a%d, %s%s%s](%s)", g.attr, g.algo.Name(), g.st.fedMark(), &g.chain, g.child.Name())
}
func (g *GroupBy) RecordSize() int      { return g.width(record.Size) }
func (g *GroupBy) Children() []Operator { return []Operator{g.child} }
func (g *GroupBy) consumesMemory() bool { return true }

// emitTo folds the sort of the child's input — pushed, or materialized —
// into groups and writes them to dst through the chain.
func (g *GroupBy) emitTo(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if g.child.RecordSize() != record.Size {
		return fmt.Errorf("exec: group-by needs %d-byte benchmark records, child emits %d (project first)",
			record.Size, g.child.RecordSize())
	}
	if a, fed := g.st.feed(g.algo); fed {
		g.algo = a
		in, err := sorts.NewFoldingIntake(ec.stageEnv(g.st), record.Size, aggregate.Combine)
		if err != nil {
			return err
		}
		buf := make([]byte, record.Size)
		partials := storage.NewSink("partials", record.Size, func(rec []byte) error {
			aggregate.Singleton(buf, rec, g.attr)
			return in.Append(buf)
		}, nil)
		return feedSort(ctx, ec, g.st, g.child, in, partials, g.sink(dst, record.Size))
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
	return g.fill(ctx, ec, "grouped", g.RecordSize(), g.emitTo)
}

func (g *GroupBy) Close() error { return g.drop(g.child) }

// HashAggregate is the in-memory aggregation fast path: one DRAM hash
// table over the group keys, no device writes beyond the result. The
// planner chooses it when the estimated group count (hint or column
// statistics) fits the stage budget; at runtime the table is
// budget-checked, and an underestimate degrades gracefully — on the
// first group the table cannot take, its partial aggregates move into a
// folding intake at the stage's share, and the rest of the input follows
// them there, so the operator becomes the fed sort-based GroupBy and
// keeps its output byte for byte instead of aborting the query. The
// intake's slots (M/record) outnumber the table's (M/(f·record)), so
// every partial fits and the switch writes nothing. Output is always
// ascending key order with the same result layout, through the
// Filter/Project chain above the operator when the compiler absorbed
// one. Blocking; writes intermediates only when it overflows.
type HashAggregate struct {
	child Operator
	attr  int
	st    *stageAlloc // the planner's stage: share, actuals + spill reporting
	chain             // applied to each group as it is rendered or merged

	groups map[uint64]*aggregate.State
	keys   []uint64
	pos    int
	raw    []byte                 // one rendered group or partial, before the chain
	put    func(rec []byte) error // the chain, into out
	out    *Batch                 // in-memory result batches, rendered from the table
	n      int                    // records of out the current Next has filled

	in     *sorts.Intake // the folding intake once the table overflowed; owns its runs
	stored               // the merged result when the table overflowed
}

func (h *HashAggregate) Name() string {
	return fmt.Sprintf("HashAggregate[a%d%s%s](%s)", h.attr, h.st.fedMark(), &h.chain, h.child.Name())
}
func (h *HashAggregate) RecordSize() int      { return h.width(record.Size) }
func (h *HashAggregate) Children() []Operator { return []Operator{h.child} }
func (h *HashAggregate) consumesMemory() bool { return true }

// aggregate drains the child into the partial table, or into the
// folding intake from the first group the table has no room for; shared
// by Open and emitTo.
func (h *HashAggregate) aggregate(ctx context.Context, ec *Ctx) error {
	if h.child.RecordSize() != record.Size {
		return fmt.Errorf("exec: hash aggregate needs %d-byte benchmark records, child emits %d (project first)",
			record.Size, h.child.RecordSize())
	}
	if h.attr < 0 || h.attr >= record.NumAttrs {
		return fmt.Errorf("exec: aggregate attribute a%d out of schema (0..%d)", h.attr, record.NumAttrs-1)
	}
	// A feedable stage has its producer emit into the table (pour), so
	// the share freezes before the producer opens; otherwise the child
	// opens first and may still re-split it. Either way the hash table
	// learns its real input only while taking it, so the stage freezes at
	// its share — later stages' re-splits must not move memory a running
	// hash table is already counting on.
	if !h.st.feedable {
		if err := h.child.Open(ctx, ec); err != nil {
			return err
		}
	}
	h.st.freeze()
	env := ec.stageEnv(h.st)
	budget := env.BudgetHashRecords(record.Size)
	h.groups = make(map[uint64]*aggregate.State)
	h.raw = make([]byte, record.Size)
	rows := 0
	add := func(rec []byte) error {
		rows++
		if h.in == nil {
			k := record.Key(rec)
			st, ok := h.groups[k]
			if ok || len(h.groups) < budget {
				if !ok {
					st = new(aggregate.State)
					h.groups[k] = st
				}
				st.Add(record.Attr(rec, h.attr))
				return nil
			}
			if err := h.overflow(env); err != nil {
				return err
			}
		}
		aggregate.Singleton(h.raw, rec, h.attr)
		return h.in.Append(h.raw)
	}
	var err error
	if h.st.feedable {
		err = pour(ctx, ec, h.child, storage.NewSink("hashagg", record.Size, add, nil))
	} else {
		err = drain(ctx, h.child, add)
	}
	h.st.choice.ActualRows = rows
	return err
}

// overflow moves the partial table, in key order, into a folding intake
// at the stage's share and drops it.
func (h *HashAggregate) overflow(env *algo.Env) error {
	in, err := sorts.NewFoldingIntake(env, record.Size, aggregate.Combine)
	if err != nil {
		return err
	}
	h.in = in
	for _, k := range h.sortedKeys() {
		h.groups[k].Render(h.raw, k)
		if err := in.Append(h.raw); err != nil {
			return err
		}
	}
	h.groups = nil
	return nil
}

// sortedKeys returns the partial table's keys ascending.
func (h *HashAggregate) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(h.groups))
	for k := range h.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// finishSpill closes the degraded path: the group count blew the budget
// share, so the folding intake merges its partials (combining groups)
// through the absorbed chain into dst — the sort-based fallback the
// estimate should have selected up front.
func (h *HashAggregate) finishSpill(_ context.Context, _ *Ctx, dst storage.Collection) error {
	h.st.choice.Spilled = true
	return h.in.MergeInto(h.sink(dst, record.Size))
}

func (h *HashAggregate) Open(ctx context.Context, ec *Ctx) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if h.in == nil {
		h.keys = h.sortedKeys()
		h.pos = 0
		h.out = newBatch(h.RecordSize(), ec.batchSize())
		h.put = h.apply(func(rec []byte) error {
			copy(h.out.views[h.n], rec)
			h.n++
			return nil
		})
		return nil
	}
	return h.fill(ctx, ec, "hashagg.merged", h.RecordSize(), h.finishSpill)
}

// emitTo writes the aggregates straight into the plan output when the
// operator sits at the root, saving the temp-then-copy of the generic
// drain — on the overflow path the intake merges directly into out.
func (h *HashAggregate) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if h.in == nil {
		put := h.apply(out.Append)
		for _, k := range h.sortedKeys() {
			h.groups[k].Render(h.raw, k)
			if err := put(h.raw); err != nil {
				return err
			}
		}
		return nil
	}
	return h.finishSpill(ctx, ec, out)
}

func (h *HashAggregate) Next(ctx context.Context) (*Batch, error) {
	if h.tmp != nil { // overflowed: the merged result is stored
		return h.stored.Next(ctx)
	}
	if h.out == nil {
		return nil, io.EOF
	}
	h.n = 0
	for h.n < len(h.out.views) && h.pos < len(h.keys) {
		k := h.keys[h.pos]
		h.pos++
		h.groups[k].Render(h.raw, k)
		if err := h.put(h.raw); err != nil {
			return nil, err
		}
	}
	if h.n == 0 {
		return nil, io.EOF
	}
	h.out.Recs = h.out.views[:h.n]
	return h.out, nil
}

// Close also destroys the runs of an overflow that did not finish.
// limitHint and source are stored's and so speak for the overflowed path
// alone: the in-memory path has nothing on the device to cap, or to hand
// a blocking parent in place of a pipe.
func (h *HashAggregate) Close() error {
	if h.in != nil {
		h.in.Discard()
	}
	h.groups, h.keys = nil, nil
	return h.drop(h.child)
}
