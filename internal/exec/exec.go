// Package exec is the pipelined query-execution engine layered over the
// paper's operators: a Volcano-style batch-iterator tree of physical
// operators (scan, stream, limit, sort, join, materialize) over storage
// collections — one sort stage (Sort) renders as an OrderBy or, with an
// aggregated attribute and the combine its kernels fold with, a GroupBy —
// a small logical-plan builder, and a physical
// planner that consults the internal/cost model — device λ, per-stage
// memory budget, input cardinalities — to choose among the write-limited
// sort and join variants (and place their write-intensity knobs) instead
// of requiring the caller to name an algorithm.
//
// Consecutive Filter and Project steps compile to one chain, and a chain
// never touches the device, so a pipelined plan writes strictly fewer
// cachelines than the naive compose-by-materializing sequence of the
// same operators. Where a chain runs follows from what it sits on, never
// from a setting (chain.go): over a Join or GroupBy it is absorbed by
// that operator and applied where it emits, so the operator's temp is
// never wider than what its consumer reads; over a stored source and
// under a blocking consumer it is a zero-write view the consumer
// re-scans (fuse.go); anywhere else it streams (Stream, scan.go). The
// same holds for what a stage holds in memory: a join whose order no
// one sees builds from only the left attributes the chain above it reads
// (reorder.go), and a group-by folds 40-byte partials, widened to result
// records only as its groups leave (aggregate.PartialSize).
//
// A blocking operator's result has two homes, decided by price. Stored:
// a temporary — the operator's own, a Materialize barrier's, the pipe
// under a join that reads a stream — which is one embedded value (stored,
// batch.go) that creates the temp, scans it and destroys it. Fed: when
// the temp's only reader would be the run formation of a planner-owned
// OrderBy or GroupBy above it — over a Join or a GroupBy, or over a
// stream that would be drained into a pipe — the consumer hands the
// producer its sort's intake as the output (Sort.intake: the paper's
// process-to-append rule, §3.1) and the result is never a temp at all.
// A group-by folds in either home, being a sort with a combine
// (sorts.SortFolding): a row whose group is resident in memory is
// combined there and every merge combines, so only the groups are
// emitted. Feeding is the engine's in-memory aggregation, so a GroupBy
// may push even a base table or a view into its intake. A fed sort ends
// in its reader: it never fills a result temp, but serves Next from its
// intake's stream (sorts.Intake.Stream) — the heap of an intake that
// never evicted, which writes nothing, or the pull merge of its last
// runs — so the plan's result stage prices its output as its reader's.
// The consumer's stage prices both homes inside the allocator's curve
// (stageAlloc.sortPlan) and takes the cheaper; Explain says which ran.
// Pinned sorts, join inputs and the materialize-every-step reference
// read stored inputs.
//
// The compiler knows the order every result is emitted in (emitOrder):
// a planner-owned OrderBy over a result already in the record order — a
// sort's or a group-by's, through filters, limits and projections that
// keep the key first — compiles to no stage, and Explain.Elided says so.
//
// Blocking operators (OrderBy, GroupBy, Join) share the plan's DRAM
// budget M through the marginal-benefit allocator (see budget.go): each
// stage's share is sized by how much its cost curve bends, with the even
// split as a guaranteed-no-worse fallback, and shares are re-split at
// Open time when actual cardinalities diverge from the estimates. Every
// stage inherits the plan's Parallelism, so the partition-parallel
// execution of the underlying algorithms carries over to whole
// pipelines.
package exec

import (
	"context"
	"fmt"
	"io"

	"wlpm/internal/algo"
	"wlpm/internal/stats"
	"wlpm/internal/storage"
)

// Operator is one node of a physical plan: a pull-based stream of
// record batches in the vectorized Volcano style. Each Next returns a
// non-empty window of up to Ctx.BatchSize records, amortizing virtual
// dispatch, context polls and predicate branches over the whole window;
// the batch (and every record view in it) is only valid until the
// operator's following Next or Close — see Batch for the ownership
// rules. Operators are single-owner and not safe for concurrent use —
// parallelism lives inside the blocking operators' algorithms, not
// between operators. Record-level consumers pull through a Cursor.
//
// Both Open and Next take the run's cancellation context: blocking
// operators hand it (through their stage environments) to the sort and
// join algorithms, which poll it between batches, and streaming
// operators forward it down the pull chain, so a cancelled query stops
// mid-sort, mid-merge or mid-probe instead of running to completion.
type Operator interface {
	// Name renders the operator (with its physical algorithm choice, if
	// any) for plan display.
	Name() string
	// RecordSize is the byte width of the records this operator emits.
	RecordSize() int
	// Children returns the input operators, left to right.
	Children() []Operator
	// Open prepares the stream. Blocking operators do their work here,
	// honouring ctx cancellation.
	Open(ctx context.Context, ec *Ctx) error
	// Next returns the next batch of records, or io.EOF when exhausted,
	// or the context's error once ctx is cancelled. Batches are never
	// empty and never exceed Ctx.BatchSize records.
	Next(ctx context.Context) (*Batch, error)
	// Close releases resources (temporaries, iterators) and closes the
	// children. Close is idempotent.
	Close() error
}

// memoryConsumer marks blocking operators that claim a share of the
// plan's memory budget. Materialize is deliberately not one: it
// breaks the pipeline but holds no working state beyond one record.
type memoryConsumer interface {
	consumesMemory() bool
}

// collectionSource is implemented by operators whose whole output
// already exists as a storage collection once Open returns: Scan (the
// base collection) and the blocking operators (their materialized
// result). Blocking parents use it to hand the collection straight to a
// sort/join algorithm instead of copying the stream.
type collectionSource interface {
	source() (storage.Collection, bool)
}

// directEmitter is implemented by blocking operators that can write
// their result straight into the caller's output collection, saving the
// temp-then-copy writes when they sit at the plan root.
type directEmitter interface {
	emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error
}

// Ctx is the execution context of one plan run: the persistence layer,
// the total DRAM budget M shared by the plan's blocking stages, and the
// worker parallelism P handed to each stage's algorithm environment.
type Ctx struct {
	Factory      storage.Factory
	MemoryBudget int64
	Parallelism  int
	// BatchSize is the records-per-batch window of the run's operators;
	// 0 means DefaultBatchSize. 1 degenerates to record-at-a-time
	// execution — same output, same simulated device traffic, none of
	// the amortization.
	BatchSize int
	// Stats supplies per-table column statistics to the physical planner
	// (selectivities, group counts, join cardinalities, join ordering).
	// Nil planning falls back to the textbook defaults.
	Stats stats.Provider

	scratch *algo.Env // root environment: temp tracking + cancellation ctx
}

// NewCtx builds a context. The budget is the whole plan's M; Compile
// divides it among the plan's blocking stages.
func NewCtx(fac storage.Factory, memoryBudget int64, parallelism int) *Ctx {
	return &Ctx{Factory: fac, MemoryBudget: memoryBudget, Parallelism: parallelism}
}

func (c *Ctx) validate() error {
	if c.Factory == nil {
		return fmt.Errorf("exec: nil storage factory")
	}
	if c.MemoryBudget <= 0 {
		return fmt.Errorf("exec: memory budget must be positive, got %d", c.MemoryBudget)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("exec: parallelism must be non-negative, got %d", c.Parallelism)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("exec: batch size must be non-negative, got %d", c.BatchSize)
	}
	return nil
}

// batchSize resolves the run's records-per-batch window.
func (c *Ctx) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// Bind prepares the context for one run of a compiled plan: it validates
// the configuration and binds the run's cancellation context to the root
// environment every stage environment derives from. RunCtx binds for
// itself; cursor-driven callers (the façade's Rows) Bind, then Open the
// root and pull it themselves.
func (c *Ctx) Bind(ctx context.Context) error {
	if err := c.validate(); err != nil {
		return err
	}
	c.scratch = algo.NewParallelEnv(c.Factory, c.MemoryBudget, c.Parallelism).WithContext(ctx)
	return nil
}

// stageEnv builds the execution environment of one blocking stage at
// its current share — the allocator sized it and Open-time re-splitting
// may have moved it — carrying the plan parallelism, the run's
// cancellation context and the shared temp tracker.
func (c *Ctx) stageEnv(s *stageAlloc) *algo.Env {
	return c.tempEnv().Derive(s.share)
}

// tempEnv is the environment non-consuming operators (Materialize,
// stream drains) allocate temporaries from.
func (c *Ctx) tempEnv() *algo.Env {
	if c.scratch == nil {
		c.scratch = algo.NewParallelEnv(c.Factory, c.MemoryBudget, c.Parallelism)
	}
	return c.scratch
}

// LiveTemps reports the temporary collections of the last run that are
// still alive — zero after a clean run or sweep (leak tests assert it).
func (c *Ctx) LiveTemps() int {
	if c.scratch == nil {
		return 0
	}
	return c.scratch.LiveTemps()
}

// SweepTemps destroys every temporary the last run left behind. RunCtx
// and the Rows cursor call it on error and cancellation paths; an aborted
// plan therefore leaks no spill, partition or pipe collections even when
// the failure struck mid-phase inside an algorithm.
func (c *Ctx) SweepTemps() error {
	if c.scratch == nil {
		return nil
	}
	return c.scratch.SweepTemps()
}

// RunCtx executes the plan rooted at root under ctx, appending its
// stream to out (in stream order) and closing both the tree and out. out
// must be empty and match the root's record size. When the root is a
// blocking operator it emits directly into out, avoiding a final
// temp-and-copy. On error — including cancellation — the operator tree
// is closed and every temporary the run created is destroyed.
func RunCtx(ctx context.Context, ec *Ctx, root Operator, out storage.Collection) error {
	if err := ec.Bind(ctx); err != nil {
		return err
	}
	if out == nil {
		return fmt.Errorf("exec: nil output collection")
	}
	if out.RecordSize() != root.RecordSize() {
		return fmt.Errorf("exec: output record size %d, plan emits %d", out.RecordSize(), root.RecordSize())
	}
	if out.Len() != 0 {
		return fmt.Errorf("exec: output collection %q not empty", out.Name())
	}
	fail := func(err error) error {
		root.Close()    //nolint:errcheck // best-effort cleanup after failure
		ec.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if e, ok := root.(directEmitter); ok {
		if err := e.emitTo(ctx, ec, out); err != nil {
			return fail(err)
		}
		if err := root.Close(); err != nil {
			return err
		}
		return out.Close()
	}
	if err := root.Open(ctx, ec); err != nil {
		return fail(err)
	}
	if err := drain(ctx, root, out.Append); err != nil {
		return fail(err)
	}
	if err := root.Close(); err != nil {
		return err
	}
	return out.Close()
}

// drain pulls op until EOF, feeding each record of each batch to emit
// and polling ctx once per batch.
func drain(ctx context.Context, op Operator, emit func(rec []byte) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := op.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for _, rec := range b.Recs {
			if err := emit(rec); err != nil {
				return err
			}
		}
	}
}

// inputCollection opens child and returns its whole output as a storage
// collection: directly when the child's output already lives on storage
// (Scan, stored blocking children — a Join's or GroupBy's already through
// the chain it absorbed), as a re-scannable zero-write view when the
// child is a Stream over such a source (see fuseView), and otherwise by
// draining the stream into a pipe temporary — a fed sort's too, which
// ends in its reader and so writes into the pipe what its own temp would
// have held. It is how a join reads its
// inputs and how a sort reads one that is stored; a sort stage that
// feeds (stageAlloc.feed) never calls it, so a pipe still exists only
// under a join, a pinned sort, or a sort whose share prices the fed
// merge passes above the pipe's write. The returned cleanup
// destroys the pipe (it is a no-op for direct collections and views) and
// must be called once the collection has been consumed; the child itself
// is closed by the caller's Close.
func inputCollection(ctx context.Context, ec *Ctx, child Operator) (storage.Collection, func() error, error) {
	if err := child.Open(ctx, ec); err != nil {
		return nil, nil, err
	}
	if c, ok, err := fuseView(ctx, ec, child); err != nil {
		return nil, nil, err
	} else if ok {
		return c, func() error { return nil }, nil
	}
	var pipe stored
	if err := pipe.fillFrom(ctx, ec, "pipe", child); err != nil {
		return nil, nil, err
	}
	return pipe.tmp, func() error { return pipe.drop() }, nil
}

// pour opens child and pushes its whole output into dst, in stream
// order, without storing it: a blocking producer emits into dst exactly
// as it would fill its own temp or the plan output (emitTo), anything
// else is drained. dst is the consumer's intake, or a sink in front of
// it; the child is closed by the caller's Close.
func pour(ctx context.Context, ec *Ctx, child Operator, dst storage.Collection) error {
	if e, ok := child.(directEmitter); ok {
		return e.emitTo(ctx, ec, dst)
	}
	if err := child.Open(ctx, ec); err != nil {
		return err
	}
	return drain(ctx, child, dst.Append)
}

// closeAll closes every operator, keeping the first error.
func closeAll(ops ...Operator) error {
	var first error
	for _, op := range ops {
		if op == nil {
			continue
		}
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
