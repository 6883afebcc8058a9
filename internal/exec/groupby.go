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
// one record per group in ascending key order. The write profile is the
// chosen sort algorithm's — the planner places the same intensity knob
// it places for order-by. Blocking.
type GroupBy struct {
	child   Operator
	attr    int
	algo    sorts.Algorithm
	st      *stageAlloc // the planner's stage: share, Open-time re-planning
	grouped storage.Collection
	sc      *batchScanner
}

func (g *GroupBy) Name() string {
	return fmt.Sprintf("GroupBy[a%d, %s](%s)", g.attr, g.algo.Name(), g.child.Name())
}
func (g *GroupBy) RecordSize() int      { return record.Size }
func (g *GroupBy) Children() []Operator { return []Operator{g.child} }
func (g *GroupBy) consumesMemory() bool { return true }

func (g *GroupBy) groupInto(ctx context.Context, ec *Ctx, dst storage.Collection) error {
	if g.child.RecordSize() != record.Size {
		return fmt.Errorf("exec: group-by needs %d-byte benchmark records, child emits %d (project first)",
			record.Size, g.child.RecordSize())
	}
	in, cleanup, err := inputCollection(ctx, ec, g.child)
	if err != nil {
		return err
	}
	// Clamp the compile-time estimate against the materialized input:
	// the stage's budget share is re-split from the actuals, then the
	// sort choice is re-priced (and, when the planner owns it, re-made).
	g.algo = g.st.openSort(in, g.algo)
	if err := aggregate.GroupBy(ec.stageEnv(g.st), g.algo, in, g.attr, dst); err != nil {
		cleanup() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return cleanup()
}

func (g *GroupBy) Open(ctx context.Context, ec *Ctx) error {
	tmp, err := ec.tempEnv().CreateTemp("grouped", record.Size)
	if err != nil {
		return err
	}
	if err := g.groupInto(ctx, ec, tmp); err != nil {
		tmp.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	g.grouped = tmp
	g.sc = newBatchScanner(tmp.Scan(), record.Size, ec.batchSize())
	return nil
}

func (g *GroupBy) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	return g.groupInto(ctx, ec, out)
}

func (g *GroupBy) Next(context.Context) (*Batch, error) {
	if g.sc == nil {
		return nil, io.EOF
	}
	return g.sc.next()
}

// limitHint caps the reads of the grouped result; the aggregation ran
// in full at Open, exactly like the record engine.
func (g *GroupBy) limitHint(n int) {
	if g.sc != nil {
		g.sc.limit(n)
	}
}

func (g *GroupBy) Close() error {
	var first error
	if g.sc != nil {
		first = g.sc.Close()
		g.sc = nil
	}
	if g.grouped != nil {
		if err := g.grouped.Destroy(); err != nil && first == nil {
			first = err
		}
		g.grouped = nil
	}
	if err := g.child.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (g *GroupBy) source() (storage.Collection, bool) { return g.grouped, g.grouped != nil }

// HashAggregate is the in-memory aggregation fast path: one DRAM hash
// table over the group keys, no device writes beyond the result. The
// planner chooses it when the estimated group count (hint or column
// statistics) fits the stage budget; at runtime the table is
// budget-checked, and an underestimate degrades gracefully — the partial
// table spills to a sorted run of per-group aggregates and the runs are
// merged (combining equal keys) at the end, so the operator keeps the
// sort-based GroupBy's output byte for byte instead of aborting the
// query. Output is always ascending key order with the same result
// layout. Blocking; writes intermediates only when it spills.
type HashAggregate struct {
	child Operator
	attr  int
	st    *stageAlloc // the planner's stage: share, actuals + spill reporting

	groups map[uint64]*aggState
	keys   []uint64
	pos    int
	out    *Batch // in-memory result batches, rendered from the table

	env    *algo.Env            // stage share; owns the spill runs
	spills []storage.Collection // sorted partial-aggregate runs
	merged storage.Collection   // merged result when the table spilled
	sc     *batchScanner        // streams merged when the table spilled
}

type aggState struct {
	count, sum, min, max uint64
}

func (h *HashAggregate) Name() string {
	return fmt.Sprintf("HashAggregate[a%d](%s)", h.attr, h.child.Name())
}
func (h *HashAggregate) RecordSize() int      { return record.Size }
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
	if err := h.child.Open(ctx, ec); err != nil {
		return err
	}
	// The hash table learns its real input only while draining it, so the
	// stage freezes at its compiled share — later stages' re-splits must
	// not move memory a running hash table is already counting on.
	h.st.freeze()
	h.env = ec.stageEnv(h.st)
	budget := h.env.BudgetHashRecords(record.Size)
	h.groups = make(map[uint64]*aggState)
	rows := 0
	err := drain(ctx, h.child, func(rec []byte) error {
		rows++
		k := record.Key(rec)
		v := record.Attr(rec, h.attr)
		st, ok := h.groups[k]
		if !ok {
			if len(h.groups) >= budget {
				if err := h.spill(); err != nil {
					return err
				}
			}
			st = &aggState{min: v, max: v}
			h.groups[k] = st
		}
		st.count++
		st.sum += v
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
		return nil
	})
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
// the runs merge (combining groups) into dst — the sort-based fallback
// the estimate should have selected up front.
func (h *HashAggregate) finishSpill(dst storage.Collection) error {
	h.st.choice.Spilled = true
	if err := h.spill(); err != nil {
		return err
	}
	return h.mergeSpills(dst)
}

func (h *HashAggregate) Open(ctx context.Context, ec *Ctx) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if len(h.spills) == 0 {
		h.keys = h.sortedKeys()
		h.pos = 0
		h.out = newBatch(record.Size, ec.batchSize())
		return nil
	}
	merged, err := ec.tempEnv().CreateTemp("hashagg.merged", record.Size)
	if err != nil {
		return err
	}
	if err := h.finishSpill(merged); err != nil {
		merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	h.merged = merged
	h.sc = newBatchScanner(merged.Scan(), record.Size, ec.batchSize())
	return nil
}

// emitTo writes the aggregates straight into the plan output when the
// operator sits at the root, saving the temp-then-copy of the generic
// drain — on the spill path the run merge lands directly in out.
func (h *HashAggregate) emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error {
	if err := h.aggregate(ctx, ec); err != nil {
		return err
	}
	if len(h.spills) == 0 {
		buf := make([]byte, record.Size)
		for _, k := range h.sortedKeys() {
			fillAggRecord(buf, k, h.groups[k])
			if err := out.Append(buf); err != nil {
				return err
			}
		}
		return nil
	}
	return h.finishSpill(out)
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
		fillAggRecord(buf, k, h.groups[k])
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
	h.groups = make(map[uint64]*aggState)
	return nil
}

// pollEmit wraps emit with the stage environment's amortized
// cancellation check, so the spill-merge passes stop mid-stream when the
// run's context is cancelled (the drain path polls through drain; this
// is its merge-phase twin, matching the sorts' pollEmit).
func (h *HashAggregate) pollEmit(emit func(rec []byte) error) func(rec []byte) error {
	poll := h.env.Poll()
	return func(rec []byte) error {
		if err := poll(); err != nil {
			return err
		}
		return emit(rec)
	}
}

// mergeSpills combines the sorted runs into dst, merging equal keys.
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
		if err := mergeAggRuns(batch, h.pollEmit(out.Append)); err != nil {
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
	if err := mergeAggRuns(h.spills, h.pollEmit(dst.Append)); err != nil {
		return err
	}
	for _, r := range h.spills {
		r.Destroy() //nolint:errcheck // destroy of a consumed temp
	}
	h.spills = nil
	return dst.Close()
}

// mergeAggRuns multiway-merges key-sorted runs of partial aggregate
// records on a head heap (the same shape as the sorts' run merges),
// combining the partials of equal keys (counts and sums add, min/max
// fold), and feeds each merged group to emit in ascending key order.
// Keys are distinct within a run, so equal keys always sit on different
// heads.
func mergeAggRuns(runs []storage.Collection, emit func(rec []byte) error) error {
	type head struct {
		it  storage.Iterator
		rec []byte // copied current record
		key uint64
	}
	iters := make([]storage.Iterator, 0, len(runs))
	defer func() {
		for _, it := range iters {
			it.Close() //nolint:errcheck // read-only iterator teardown
		}
	}()
	advance := func(h *head) (bool, error) {
		rec, err := h.it.Next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		copy(h.rec, rec)
		h.key = record.Key(h.rec)
		return true, nil
	}
	heap := xheap.New(func(a, b *head) bool { return a.key < b.key }, len(runs))
	for _, r := range runs {
		h := &head{it: r.Scan(), rec: make([]byte, record.Size)}
		iters = append(iters, h.it)
		ok, err := advance(h)
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h)
		}
	}
	buf := make([]byte, record.Size)
	for heap.Len() > 0 {
		h := heap.Pop()
		key := h.key
		st := aggState{
			count: record.Attr(h.rec, aggregate.AttrCount),
			sum:   record.Attr(h.rec, aggregate.AttrSum),
			min:   record.Attr(h.rec, aggregate.AttrMin),
			max:   record.Attr(h.rec, aggregate.AttrMax),
		}
		for {
			ok, err := advance(h)
			if err != nil {
				return err
			}
			if ok {
				heap.Push(h)
			}
			if heap.Len() == 0 || heap.Peek().key != key {
				break
			}
			h = heap.Pop()
			st.count += record.Attr(h.rec, aggregate.AttrCount)
			st.sum += record.Attr(h.rec, aggregate.AttrSum)
			if v := record.Attr(h.rec, aggregate.AttrMin); v < st.min {
				st.min = v
			}
			if v := record.Attr(h.rec, aggregate.AttrMax); v > st.max {
				st.max = v
			}
		}
		fillAggRecord(buf, key, &st)
		if err := emit(buf); err != nil {
			return err
		}
	}
	return nil
}

// fillAggRecord renders one group's aggregates in the result layout
// shared with the sort-based GroupBy.
func fillAggRecord(buf []byte, key uint64, st *aggState) {
	for i := range buf {
		buf[i] = 0
	}
	record.SetAttr(buf, aggregate.AttrGroupKey, key)
	record.SetAttr(buf, aggregate.AttrCount, st.count)
	record.SetAttr(buf, aggregate.AttrSum, st.sum)
	record.SetAttr(buf, aggregate.AttrMin, st.min)
	record.SetAttr(buf, aggregate.AttrMax, st.max)
}

func (h *HashAggregate) Next(context.Context) (*Batch, error) {
	if h.sc != nil {
		return h.sc.next()
	}
	if h.out == nil || h.pos >= len(h.keys) {
		return nil, io.EOF
	}
	n := 0
	for n < len(h.out.views) && h.pos < len(h.keys) {
		k := h.keys[h.pos]
		fillAggRecord(h.out.views[n], k, h.groups[k])
		h.pos++
		n++
	}
	h.out.Recs = h.out.views[:n]
	return h.out, nil
}

// limitHint caps the reads of the merged spill result; the in-memory
// path serves from DRAM and needs no cap.
func (h *HashAggregate) limitHint(n int) {
	if h.sc != nil {
		h.sc.limit(n)
	}
}

// source exposes the merged spill result to blocking parents so they
// consume it directly instead of re-draining it into a pipe temporary
// (one saved write+read of the whole aggregate output). The in-memory
// path has no device-side materialization to share.
func (h *HashAggregate) source() (storage.Collection, bool) { return h.merged, h.merged != nil }

func (h *HashAggregate) Close() error {
	var first error
	if h.sc != nil {
		first = h.sc.Close()
		h.sc = nil
	}
	if h.merged != nil {
		if err := h.merged.Destroy(); err != nil && first == nil {
			first = err
		}
		h.merged = nil
	}
	for _, r := range h.spills {
		if err := r.Destroy(); err != nil && first == nil {
			first = err
		}
	}
	h.spills = nil
	h.groups, h.keys = nil, nil
	if err := h.child.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
