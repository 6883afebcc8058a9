// Package exec is the pipelined query-execution engine layered over the
// paper's operators: a Volcano-style tree of physical operators (scan,
// stream, limit, sort, join, materialize) over storage collections — one
// sort stage (Sort) renders as an OrderBy or, with an aggregated
// attribute and the combine its kernels fold with, a GroupBy — a small
// logical-plan builder, and a physical planner that consults the
// internal/cost model — device λ, per-stage memory budget, input
// cardinalities — to choose among the write-limited sort and join
// variants (and place their write-intensity knobs) instead of requiring
// the caller to name an algorithm. An opened operator is a storage
// iterator read by chunk: the one pull protocol the sort and join
// kernels read their inputs with.
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
// batch.go) that creates the temp, serves its scan to a reader that
// pulls it and destroys it. A result enters a collection one way (pour),
// and a consumer reads its input as a collection one way
// (inputCollection), decided before anything opens. Fed: when
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
// in its reader: it never fills a result temp, but serves its intake's
// stream (sorts.Intake.Stream, its one end) as its own — the heap of an
// intake that never evicted, which writes nothing, or the pull merge of
// its last runs — so the plan's result stage prices its output as its
// reader's.
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
// Compile is one walk of the plan: it builds the operator tree, and each
// blocking operator (OrderBy, GroupBy, Join) it makes adds a stage priced
// from the plan's cardinality estimates, each node estimated once, and
// from the shape of the tree beneath it. The stages share the plan's DRAM
// budget M through the allocator (see budget.go), which splits it at the
// step edges of their prices, the even split its first candidate; each
// stage then takes its algorithm at its share (stageAlloc.bind). Shares
// are fixed at compile; at Open a stage re-plans at its actual input
// size and its share. Every
// stage inherits the plan's Parallelism, so the partition-parallel
// execution of the underlying algorithms carries over to whole
// pipelines.
package exec

import (
	"context"
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/stats"
	"wlpm/internal/storage"
)

// Operator is one node of a physical plan. Opened, it is a stream: Open
// returns a storage.Iterator of the operator's records, read by chunk
// (storage.ChunkIterator) like every other input in the engine — Ctx's
// PullSize records per pull, amortizing interface dispatch, context
// polls and predicate branches over the whole chunk. A chunk (and every
// record view in it) is only valid until the stream's following pull
// or the operator's Close. The operator owns the stream and closes it
// in Close. Operators are single-owner and not safe for concurrent use —
// parallelism lives inside the blocking operators' algorithms, not
// between operators. Record-level consumers pull through a
// storage.Cursor.
//
// Open takes the run's cancellation context: blocking operators hand it
// (through their stage environments) to the sort and join algorithms,
// which poll it between chunks, and a Stream's chain iterator polls it
// as it refills, so a cancelled query stops mid-sort, mid-merge,
// mid-probe or mid-filter instead of running to completion.
type Operator interface {
	// Name renders the operator (with its physical algorithm choice, if
	// any) for plan display.
	Name() string
	// RecordSize is the byte width of the records this operator emits.
	RecordSize() int
	// Children returns the input operators, left to right.
	Children() []Operator
	// Open prepares the stream and returns it. Blocking operators do
	// their work here, honouring ctx cancellation.
	Open(ctx context.Context, ec *Ctx) (storage.Iterator, error)
	// Close releases resources (the stream, temporaries) and closes the
	// children. Close is idempotent.
	Close() error
}

// memoryConsumer marks blocking operators that claim a share of the
// plan's memory budget. Materialize is deliberately not one: it
// breaks the pipeline but holds no working state beyond one record.
type memoryConsumer interface {
	consumesMemory() bool
}

// directEmitter is implemented by blocking operators that can write
// their result straight into a collection they are handed — the plan
// output, a pipe, the next stage's intake — saving the temp-then-copy
// writes (pour).
type directEmitter interface {
	emitTo(ctx context.Context, ec *Ctx, out storage.Collection) error
}

// storer is implemented by Sort, Join and Materialize: storeResult fills
// the operator's own temp (stored) for a consumer that reads it as a
// collection, or returns nil, having run nothing, for a fed sort.
type storer interface {
	storeResult(ctx context.Context, ec *Ctx) (storage.Collection, error)
}

// Ctx is the execution context of one plan run: the persistence layer,
// the total DRAM budget M shared by the plan's blocking stages, and the
// worker parallelism P handed to each stage's algorithm environment.
type Ctx struct {
	Factory      storage.Factory
	MemoryBudget int64
	Parallelism  int
	// BatchSize is the records per pull of the run's streams; 0 means
	// DefaultBatchSize. 1 degenerates to record-at-a-time execution —
	// same output, same simulated device traffic, none of the
	// amortization.
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

// PullSize resolves the run's records per pull: BatchSize, or
// DefaultBatchSize when that is 0.
func (c *Ctx) PullSize() int {
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
// the share the allocator gave it at compile, carrying the plan
// parallelism, the run's cancellation context and the shared temp
// tracker.
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
// must be empty and match the root's record size. The root's result is
// poured into out: a blocking root emits into it directly, avoiding a
// final temp-and-copy. On error — including cancellation — the operator
// tree is closed and every temporary the run created is destroyed.
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
	if err := pour(ctx, ec, root, out); err != nil {
		root.Close()    //nolint:errcheck // best-effort cleanup after failure
		ec.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	if err := root.Close(); err != nil {
		return err
	}
	return out.Close()
}

// inputCollection returns child's whole output as a storage collection,
// the one way a join reads its inputs and a stored sort its one. The
// form is decided from the tree before anything runs (onDevice): a Scan
// is its collection; an un-fed Sort, a Join (through its chain) or a
// Materialize fills its own temp, read with no scan opened on it; a
// Stream over either is a zero-write view. Anything else — a Limit, a fed
// sort, a Stream over either — is poured into a pipe temp. A feeding sort
// stage never calls it, so a pipe exists only under a join, a pinned
// sort, or a sort that priced the fed merge passes above the pipe's
// write. The returned cleanup destroys the pipe (a no-op otherwise) and
// must be called once the collection has been consumed; the child itself
// is closed by the caller's Close.
func inputCollection(ctx context.Context, ec *Ctx, child Operator) (storage.Collection, func() error, error) {
	c, err := onDevice(ctx, ec, child)
	if err != nil {
		return nil, nil, err
	}
	if c != nil {
		return c, func() error { return nil }, nil
	}
	var pipe stored
	tmp, err := pipe.pourInto(ctx, ec, "pipe", child)
	if err != nil {
		return nil, nil, err
	}
	return tmp, func() error { return pipe.drop() }, nil
}

// pour pushes child's whole output into dst, in stream order, without
// storing it: a blocking producer emits into dst exactly as it would fill
// its own temp (emitTo), anything else is opened and drained, PullSize
// records per pull, polling the run's context (algo.ForEach). dst is the
// plan output, a pipe or barrier temp, the consumer's intake, or a sink
// in front of it; the child is closed by the caller's Close.
func pour(ctx context.Context, ec *Ctx, child Operator, dst storage.Collection) error {
	if e, ok := child.(directEmitter); ok {
		return e.emitTo(ctx, ec, dst)
	}
	it, err := child.Open(ctx, ec)
	if err != nil {
		return err
	}
	return algo.ForEach(ec.tempEnv().Poller(), it, ec.PullSize(), dst.Append)
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
