// Package algo holds the execution environment shared by the sort and
// join operators: the persistence-layer factory for spilling intermediate
// results, the DRAM working-memory budget M, and the device cost ratio λ
// that the write-limited algorithms consult when placing their knobs.
package algo

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"wlpm/internal/storage"
)

// HashTableExpansion is f, the growth of a partition when a hash table is
// built over it; the paper assumes f = 1.2 (§2.2.1, Fig. 2 discussion).
const HashTableExpansion = 1.2

// Env is the execution environment of one operator invocation.
//
// An Env (and the collections it creates) is owned by one goroutine at a
// time. Parallel operators obtain per-worker child environments via Split,
// whose budgets sum to the parent's M so the paper's cost model keeps
// holding under parallel execution.
type Env struct {
	// Factory creates temporary collections (runs, partitions,
	// intermediate inputs) on the persistence layer under test.
	Factory storage.Factory
	// MemoryBudget is M: the DRAM working memory in bytes available to
	// the operator (heaps, hash tables, merge buffers).
	MemoryBudget int64
	// Parallelism is P: the number of workers independent phases (run
	// formation, intermediate merges, partitioning, probing) may fan out
	// to. Zero or one means serial execution, the paper's configuration.
	Parallelism int

	ns     string // temp-name namespace ("" for the root environment)
	tmpSeq int

	// ctx carries the invocation's cancellation signal. Read loops poll
	// it through a Poller; nil means "never cancelled".
	ctx context.Context
	// temps registers every live temporary created through this
	// environment (shared across Split children and Derive siblings), so
	// an aborted or cancelled operator can sweep its spill/partition
	// collections instead of leaking them.
	temps *tempTracker
	// phases optionally attributes wall time and device traffic to named
	// operator phases (see TimePhase); nil means no attribution.
	phases *PhaseRecorder
}

// tempTracker records live temporary collections by name. Shared by the
// worker environments of one operator invocation, hence the mutex.
type tempTracker struct {
	mu   sync.Mutex
	live map[string]storage.Collection
}

func (t *tempTracker) add(c storage.Collection) {
	t.mu.Lock()
	t.live[c.Name()] = c
	t.mu.Unlock()
}

func (t *tempTracker) remove(name string) {
	t.mu.Lock()
	delete(t.live, name)
	t.mu.Unlock()
}

// trackedCollection deregisters itself from the tracker on Destroy, so
// the sweep only ever sees genuinely live temporaries.
type trackedCollection struct {
	storage.Collection
	t *tempTracker
}

func (c *trackedCollection) Destroy() error {
	c.t.remove(c.Name())
	return c.Collection.Destroy()
}

// Unwrap exposes the underlying collection for capability probes
// (storage.AsRangeAppender) that must see through decorators.
func (c *trackedCollection) Unwrap() storage.Collection { return c.Collection }

// envSeq numbers root environments so that concurrent operator
// invocations sharing one factory create temporaries in disjoint name
// spaces.
var envSeq atomic.Int64

// NewEnv builds an environment with the given factory and budget.
func NewEnv(f storage.Factory, memoryBudget int64) *Env {
	return &Env{
		Factory:      f,
		MemoryBudget: memoryBudget,
		ns:           fmt.Sprintf("e%d.", envSeq.Add(1)),
		temps:        &tempTracker{live: make(map[string]storage.Collection)},
	}
}

// NewParallelEnv builds an environment that fans independent work out to
// up to parallelism workers.
func NewParallelEnv(f storage.Factory, memoryBudget int64, parallelism int) *Env {
	e := NewEnv(f, memoryBudget)
	e.Parallelism = parallelism
	return e
}

// WithContext attaches a cancellation context to the environment and
// returns it. Split children and Derive siblings inherit the context.
func (e *Env) WithContext(ctx context.Context) *Env {
	e.ctx = ctx
	return e
}

// PollInterval is the record granularity of the engine's cancellation
// poll (Poller): fine enough that a cancelled query stops mid-run,
// mid-merge or mid-probe, coarse enough that the check never shows up in
// a profile.
const PollInterval = 256

// Poller is the engine's one cancellation poll. Every read loop — a
// scan, a selection pass, a merge, an intake's appends, a chain
// iterator's refills — holds one and ticks it before records pass. It
// checks the context on its first tick, so a loop polls as it starts and
// a loop of short loops polls once per loop, and again on each tick that
// brings the records ticked since its last check to PollInterval. A
// Poller belongs to one loop on one goroutine; over a nil context it
// does nothing.
type Poller struct {
	ctx  context.Context
	left int // records still to pass before the next check; ≤ 0 checks
}

// NewPoller polls ctx.
func NewPoller(ctx context.Context) Poller { return Poller{ctx: ctx} }

// Poller polls the environment's context.
func (e *Env) Poller() Poller { return Poller{ctx: e.ctx} }

// Tick is called before n records pass: it reports the context's error
// when this tick checks it, nil otherwise.
func (p *Poller) Tick(n int) error {
	if p.ctx == nil {
		return nil
	}
	if p.left -= n; p.left > 0 {
		return nil
	}
	p.left = PollInterval - n
	return p.ctx.Err()
}

// Derive returns an environment with the given budget that shares e's
// factory, parallelism, context and temp tracker — the per-stage
// environment of a plan whose blocking stages split one budget.
func (e *Env) Derive(memoryBudget int64) *Env {
	e.tmpSeq++
	return &Env{
		Factory:      e.Factory,
		MemoryBudget: memoryBudget,
		Parallelism:  e.Parallelism,
		ns:           fmt.Sprintf("%sd%d.", e.ns, e.tmpSeq),
		ctx:          e.ctx,
		temps:        e.temps,
		phases:       e.phases,
	}
}

// LiveTemps reports the number of live temporaries created through this
// environment (including Split children and Derive siblings) — zero
// after a clean run or a complete sweep; leak tests assert on it.
func (e *Env) LiveTemps() int {
	if e.temps == nil {
		return 0
	}
	e.temps.mu.Lock()
	defer e.temps.mu.Unlock()
	return len(e.temps.live)
}

// SweepTemps destroys every live temporary created through this
// environment, returning the first destroy error. It is the
// error-and-cancellation janitor: operators that abort mid-phase leave
// their runs and partitions behind, and the owner of the environment
// sweeps them instead of leaking device space.
func (e *Env) SweepTemps() error {
	if e.temps == nil {
		return nil
	}
	e.temps.mu.Lock()
	live := make([]storage.Collection, 0, len(e.temps.live))
	for _, c := range e.temps.live {
		live = append(live, c)
	}
	e.temps.mu.Unlock()
	var first error
	for _, c := range live {
		if err := c.Destroy(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Validate reports configuration errors.
func (e *Env) Validate() error {
	if e.Factory == nil {
		return fmt.Errorf("algo: nil storage factory")
	}
	if e.MemoryBudget <= 0 {
		return fmt.Errorf("algo: memory budget must be positive, got %d", e.MemoryBudget)
	}
	if e.Parallelism < 0 {
		return fmt.Errorf("algo: parallelism must be non-negative, got %d", e.Parallelism)
	}
	return nil
}

// TempName returns a fresh collection name with the given prefix.
func (e *Env) TempName(prefix string) string {
	e.tmpSeq++
	return fmt.Sprintf("%s%s.%d", e.ns, prefix, e.tmpSeq)
}

// CreateTemp creates a temporary collection for intermediate results.
// The temporary is tracked until destroyed, so SweepTemps can clean up
// after an aborted or cancelled invocation.
func (e *Env) CreateTemp(prefix string, recSize int) (storage.Collection, error) {
	c, err := e.Factory.Create(e.TempName(prefix), recSize)
	if err != nil {
		return nil, err
	}
	if e.temps == nil {
		return c, nil
	}
	tc := &trackedCollection{Collection: c, t: e.temps}
	e.temps.add(tc)
	return tc, nil
}

// Lambda is the device's current write/read cost ratio λ.
func (e *Env) Lambda() float64 { return e.Factory.Device().Lambda() }

// BudgetRecords converts the byte budget to whole records of size recSize.
func (e *Env) BudgetRecords(recSize int) int {
	n := int(e.MemoryBudget / int64(recSize))
	if n < 1 {
		n = 1
	}
	return n
}

// ChunkRecords is the kernels' scan granularity for records of size
// recSize: one persistence-layer block's worth.
func (e *Env) ChunkRecords(recSize int) int {
	return storage.ChunkRecords(e.Factory.BlockSize(), recSize)
}

// Scan applies fn to every record of src, in order, reading it one block
// chunk at a time (ForEach, polling the environment's context): the
// kernels' one way to walk an input.
func (e *Env) Scan(src storage.Collection, fn func(rec []byte) error) error {
	it := src.Scan()
	defer it.Close()
	return ForEach(e.Poller(), it, e.ChunkRecords(src.RecordSize()), fn)
}

// ForEach applies fn to every remaining record of it, in stream order,
// reading at most chunk records per NextChunk call. It is the engine's
// one read loop: records reach fn as views of the blocks read (valid
// only during the call, and device bytes where the store reads in
// place, so never written through), and a loop copies nothing it does
// not keep. Each chunk fetched ticks poll before any of its records
// reaches fn; a loop whose iterator polls itself passes the zero
// Poller. ForEach does not close it.
func ForEach(poll Poller, it storage.Iterator, chunk int, fn func(rec []byte) error) error {
	ci := storage.Chunked(it)
	for {
		recs, err := ci.NextChunk(chunk)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := poll.Tick(len(recs)); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// BudgetHashRecords is the number of records of size recSize whose hash
// table fits in the budget, accounting for the expansion factor f.
func (e *Env) BudgetHashRecords(recSize int) int {
	n := int(float64(e.MemoryBudget) / (HashTableExpansion * float64(recSize)))
	if n < 1 {
		n = 1
	}
	return n
}

// BudgetBuffers converts the byte budget to persistence-layer blocks, the
// unit that bounds merge fan-in.
func (e *Env) BudgetBuffers() int {
	n := int(e.MemoryBudget / int64(e.Factory.BlockSize()))
	if n < 2 {
		n = 2
	}
	return n
}
