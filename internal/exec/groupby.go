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
	"wlpm/internal/xheap"
)

// GroupBy is the sort-based write-limited aggregation: it groups its
// benchmark-schema input by key and aggregates one attribute
// (count/sum/min/max in the aggregate package's result slots), emitting
// one record per group in ascending key order — through the
// Filter/Project chain above it, when the compiler absorbed one. The
// write profile is the chosen sort algorithm's runs plus the groups (the
// sorted input is folded as the sort emits it, never written) — the
// planner places the same intensity knob it places for order-by.
// Blocking.
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
		fold, err := aggregate.Fold(g.attr, g.sink(dst, record.Size))
		if err != nil {
			return err
		}
		return feedSort(ctx, ec, g.st, g.child, fold)
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
// budget-checked, and an underestimate degrades gracefully — the partial
// table spills to a sorted run of per-group aggregates and the runs are
// merged (combining equal keys) at the end, so the operator keeps the
// sort-based GroupBy's output byte for byte instead of aborting the
// query. Output is always ascending key order with the same result
// layout, through the Filter/Project chain above the operator when the
// compiler absorbed one. Blocking; writes intermediates only when it
// spills.
type HashAggregate struct {
	child Operator
	attr  int
	st    *stageAlloc // the planner's stage: share, actuals + spill reporting
	chain             // applied to each group as it is rendered or merged

	groups map[uint64]*aggregate.State
	keys   []uint64
	pos    int
	raw    []byte                 // one rendered group, before the chain
	put    func(rec []byte) error // the chain, into out
	out    *Batch                 // in-memory result batches, rendered from the table
	n      int                    // records of out the current Next has filled

	env    *algo.Env            // stage share; owns the spill runs
	spills []storage.Collection // sorted partial-aggregate runs
	stored                      // the merged result when the table spilled
}

func (h *HashAggregate) Name() string {
	return fmt.Sprintf("HashAggregate[a%d%s%s](%s)", h.attr, h.st.fedMark(), &h.chain, h.child.Name())
}
func (h *HashAggregate) RecordSize() int      { return h.width(record.Size) }
func (h *HashAggregate) Children() []Operator { return []Operator{h.child} }
func (h *HashAggregate) consumesMemory() bool { return true }

// aggregate drains the child into the partial table, spilling sorted
// runs on budget overflow; shared by Open and emitTo.
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
	h.env = ec.stageEnv(h.st)
	budget := h.env.BudgetHashRecords(record.Size)
	h.groups = make(map[uint64]*aggregate.State)
	rows := 0
	add := func(rec []byte) error {
		rows++
		k := record.Key(rec)
		st, ok := h.groups[k]
		if !ok {
			if len(h.groups) >= budget {
				if err := h.spill(); err != nil {
					return err
				}
			}
			st = new(aggregate.State)
			h.groups[k] = st
		}
		st.Add(record.Attr(rec, h.attr))
		return nil
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
// share, so the final partial table flushes as one more sorted run and
// the runs merge (combining groups) through the absorbed chain into dst —
// the sort-based fallback the estimate should have selected up front.
func (h *HashAggregate) finishSpill(_ context.Context, _ *Ctx, dst storage.Collection) error {
	h.st.choice.Spilled = true
	if err := h.spill(); err != nil {
		return err
	}
	return h.mergeSpills(h.sink(dst, record.Size))
}

func (h *HashAggregate) Open(ctx context.Context, ec *Ctx) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if len(h.spills) == 0 {
		h.keys = h.sortedKeys()
		h.pos = 0
		h.raw = make([]byte, record.Size)
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
// drain — on the spill path the run merge lands directly in out.
func (h *HashAggregate) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if len(h.spills) == 0 {
		put := h.apply(out.Append)
		buf := make([]byte, record.Size)
		for _, k := range h.sortedKeys() {
			h.groups[k].Render(buf, k)
			if err := put(buf); err != nil {
				return err
			}
		}
		return nil
	}
	return h.finishSpill(ctx, ec, out)
}

// spill writes the current partial table to a key-sorted run of
// aggregate records and resets the table.
func (h *HashAggregate) spill() error {
	if len(h.groups) == 0 {
		return nil
	}
	run, err := h.env.CreateTemp("hashagg.run", record.Size)
	if err != nil {
		return err
	}
	buf := make([]byte, record.Size)
	for _, k := range h.sortedKeys() {
		h.groups[k].Render(buf, k)
		if err := run.Append(buf); err != nil {
			run.Destroy() //nolint:errcheck // best-effort cleanup after failure
			return err
		}
	}
	if err := run.Close(); err != nil {
		run.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	h.spills = append(h.spills, run)
	h.groups = make(map[uint64]*aggregate.State)
	return nil
}

// mergeSpills combines the sorted runs into dst, merging equal keys; the
// merge passes poll per record (the drain path polls through drain).
// Fan-in is capped at the stage's buffer budget less one output buffer
// (the same headroom the sorts' merges reserve); larger run counts go
// through intermediate merge passes, external-mergesort style.
func (h *HashAggregate) mergeSpills(dst storage.Collection) error {
	fanIn := h.env.BudgetBuffers() - 1
	if fanIn < 2 {
		fanIn = 2
	}
	for len(h.spills) > fanIn {
		batch := h.spills[:fanIn]
		out, err := h.env.CreateTemp("hashagg.merge", record.Size)
		if err != nil {
			return err
		}
		if err := mergeAggRuns(h.env, batch, h.env.Polled(out.Append)); err != nil {
			out.Destroy() //nolint:errcheck // best-effort cleanup after failure
			return err
		}
		if err := out.Close(); err != nil {
			out.Destroy() //nolint:errcheck // best-effort cleanup after failure
			return err
		}
		for _, r := range batch {
			r.Destroy() //nolint:errcheck // destroy of a consumed temp
		}
		h.spills = append(append([]storage.Collection(nil), h.spills[fanIn:]...), out)
	}
	if err := mergeAggRuns(h.env, h.spills, h.env.Polled(dst.Append)); err != nil {
		return err
	}
	for _, r := range h.spills {
		r.Destroy() //nolint:errcheck // destroy of a consumed temp
	}
	h.spills = nil
	return dst.Close()
}

// mergeAggRuns multiway-merges key-sorted runs of partial aggregate
// records (the same shape as the sorts' run merges: each run read one
// block chunk at a time, one keyed head slot per run whose tie-break
// names it, advanced in place, so the loop allocates nothing), combining
// the partials of equal keys, and feeds each merged group to emit in
// ascending key order. Keys are distinct within a run, so equal keys
// always sit on different heads.
func mergeAggRuns(env *algo.Env, runs []storage.Collection, emit func(rec []byte) error) error {
	chunk := env.ChunkRecords(record.Size)
	srcs := make([]*storage.Cursor, len(runs))
	heads := xheap.NewKeyed(record.Size, len(runs), false)
	for i, r := range runs {
		it := r.Scan()
		defer it.Close() //nolint:errcheck // read-only iterator teardown
		srcs[i] = storage.NewCursor(it, chunk)
		rec, err := srcs[i].Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		heads.Push(record.Key(rec), uint32(i), rec)
	}
	buf := make([]byte, record.Size)
	for heads.Len() > 0 {
		key := heads.Top().Key
		var st aggregate.State
		for heads.Len() > 0 && heads.Top().Key == key {
			top := heads.Top()
			st.Merge(heads.Record(top.Slot))
			rec, err := srcs[top.Tie].Next()
			if err == io.EOF {
				heads.Pop()
				continue
			}
			if err != nil {
				return err
			}
			heads.ReplaceTop(record.Key(rec), top.Tie, rec)
		}
		st.Render(buf, key)
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

func (h *HashAggregate) Next(ctx context.Context) (*Batch, error) {
	if h.tmp != nil { // spilled: the merged result is stored
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

// Close also destroys the runs of a spill that did not finish. limitHint
// and source are stored's and so speak for the spilled path alone: the
// in-memory path has nothing on the device to cap, or to hand a blocking
// parent in place of a pipe.
func (h *HashAggregate) Close() error {
	var first error
	for _, r := range h.spills {
		if err := r.Destroy(); err != nil && first == nil {
			first = err
		}
	}
	h.spills = nil
	h.groups, h.keys = nil, nil
	if err := h.drop(h.child); err != nil && first == nil {
		first = err
	}
	return first
}
