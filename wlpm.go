// Package wlpm is a Go implementation of write-limited sorts and joins
// for persistent memory, reproducing Viglas, PVLDB 7(5), 2014.
//
// Persistent memory is byte-addressable but write-asymmetric: writes cost
// roughly an order of magnitude more than reads (λ = w/r > 1). The
// algorithms here trade expensive writes for cheap(er) reads, either by
// splitting the computation into a write-incurring and a write-limited
// part with a tunable "write intensity" knob (segment sort, hybrid sort,
// hybrid Grace-nested-loops join, segmented Grace join), or by processing
// lazily and materializing intermediate results only when the accumulated
// re-read penalty exceeds the write savings (lazy sort, lazy hash join).
//
// The package is a façade over the building blocks:
//
//   - a simulated persistent-memory device with per-cacheline read/write
//     accounting and latency charging (10 ns / 150 ns by default)
//   - four persistence-layer backends mirroring the paper's
//     implementation study: blocked memory, a PMFS-like byte-addressable
//     filesystem, a sector-based RAM disk, and doubling dynamic arrays
//   - the sort and join operators with their baselines
//   - the analytic cost model (Eqs. 1–11) and knob solvers
//   - the experiment harness regenerating every figure and table of the
//     paper's evaluation
//
// # Quick start
//
//	sys, _ := wlpm.New(wlpm.WithCapacity(1 << 30))
//	in, _ := sys.Create("input")
//	_ = wlpm.GenerateRecords(1_000_000, 42, in.Append)
//	_ = in.Close()
//	out, _ := sys.Create("sorted")
//	_ = sys.SortCtx(ctx, wlpm.SegmentSort(0.2), in, out, 4<<20) // 4 MiB budget
//	fmt.Println(sys.Stats()) // cacheline writes vs reads
//
// # Concurrent use
//
// The query API is session-based: a System-wide memory broker
// (WithMemoryBudget) admits each query's working-memory grant before it
// is planned, queries stream through cancellable cursors, and grants are
// released on cursor Close or context cancellation — so any number of
// concurrent sessions share one System without oversubscribing its DRAM
// budget. The planner splits each grant across the plan's blocking
// stages by marginal benefit (the stage whose cost curve bends most gets
// the memory). See the README's "Memory planning" and "Concurrent use"
// sections and examples/concurrent.
//
//	sess := sys.Session(wlpm.WithSessionBudget(16 << 20))
//	rows, err := sess.Query(dim).Join(sess.Query(fact)).GroupBy(3).Rows(ctx)
//	...
//	defer rows.Close()
//	for rows.Next() {
//	    var key, count uint64
//	    _ = rows.Scan(&key, &count)
//	}
package wlpm

import (
	"context"
	"fmt"
	"time"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
	"wlpm/internal/bench"
	"wlpm/internal/broker"
	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/stats"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

// Re-exported building blocks. The aliases make the internal types usable
// by external importers through this package's namespace.
type (
	// Device is the simulated persistent-memory device.
	Device = pmem.Device
	// DeviceConfig parametrizes a Device.
	DeviceConfig = pmem.Config
	// Stats is a snapshot of device counters: cacheline reads/writes and
	// the simulated clock.
	Stats = pmem.Stats
	// WearSummary aggregates per-cacheline write counters.
	WearSummary = pmem.WearSummary
	// Collection is an append-only sequence of fixed-size records on the
	// persistence layer.
	Collection = storage.Collection
	// Iterator streams a collection's records.
	Iterator = storage.Iterator
	// Factory creates collections on one backend.
	Factory = storage.Factory
	// Env is the execution environment (factory + memory budget) of one
	// operator invocation.
	Env = algo.Env
	// SortAlgorithm is a persistent-memory sort operator.
	SortAlgorithm = sorts.Algorithm
	// JoinAlgorithm is a persistent-memory equi-join operator.
	JoinAlgorithm = joins.Algorithm
	// ExperimentConfig controls the paper-experiment harness.
	ExperimentConfig = bench.Config
	// Report is one regenerated table or figure.
	Report = bench.Report
	// TableStats is the collected column statistics of one collection:
	// per-attribute distinct-count estimates and equi-depth histograms
	// feeding the physical planner.
	TableStats = stats.Table
	// ColumnStats is the statistics of one 8-byte attribute.
	ColumnStats = stats.Column
)

// RecordSize is the benchmark schema's record size: ten 8-byte integer
// attributes; the key is attribute zero.
const RecordSize = record.Size

// Attribute slots of GroupBy result records.
const (
	GroupAttrKey   = aggregate.AttrGroupKey
	GroupAttrCount = aggregate.AttrCount
	GroupAttrSum   = aggregate.AttrSum
	GroupAttrMin   = aggregate.AttrMin
	GroupAttrMax   = aggregate.AttrMax
)

// Attr reads attribute i of a benchmark record.
func Attr(rec []byte, i int) uint64 { return record.Attr(rec, i) }

// SetAttr writes attribute i of a benchmark record.
func SetAttr(rec []byte, i int, v uint64) { record.SetAttr(rec, i, v) }

// Backends lists the four persistence-layer implementations.
var Backends = storage.Backends

// Option configures New.
type Option func(*sysConfig)

type sysConfig struct {
	capacity      int64
	backend       string
	blockSize     int
	readLatency   time.Duration
	writeLatency  time.Duration
	trackWear     bool
	parallelism   int
	batchSize     int
	noAutoCollect bool
	memoryBudget  int64
}

// WithCapacity sets the device size in bytes (default 256 MiB). The whole
// capacity is allocated and zeroed when the System is built, so host time
// and memory grow with it, whatever the tables hold.
func WithCapacity(bytes int64) Option { return func(c *sysConfig) { c.capacity = bytes } }

// WithBackend selects the persistence layer: "blocked" (default),
// "pmfs", "ramdisk" or "dynarray".
func WithBackend(name string) Option { return func(c *sysConfig) { c.backend = name } }

// WithBlockSize sets the DRAM↔PM exchange unit (default 1024 bytes).
func WithBlockSize(bytes int) Option { return func(c *sysConfig) { c.blockSize = bytes } }

// WithLatencies sets the charged per-cacheline latencies (defaults
// 10 ns read, 150 ns write: λ = 15).
func WithLatencies(read, write time.Duration) Option {
	return func(c *sysConfig) { c.readLatency, c.writeLatency = read, write }
}

// WithWearTracking enables the per-cacheline endurance counters.
func WithWearTracking() Option { return func(c *sysConfig) { c.trackWear = true } }

// WithParallelism sets P, the number of workers operators fan independent
// partitions, runs and probe chunks out to (default 1, the paper's serial
// execution). Per-worker memory budgets sum to the operator's M and the
// output is byte-identical to the serial run at any P.
func WithParallelism(n int) Option { return func(c *sysConfig) { c.parallelism = n } }

// WithBatchSize sets the records-per-batch window of the vectorized
// executor (default 1024). Batch size changes only how many records move
// per operator pull: output and simulated device traffic are identical
// at any setting, and 1 degenerates to record-at-a-time execution.
func WithBatchSize(n int) Option { return func(c *sysConfig) { c.batchSize = n } }

// WithAutoCollect controls whether queries collect missing table
// statistics on first use (default true). With it disabled the planner
// only sees statistics gathered explicitly through System.Collect.
func WithAutoCollect(enabled bool) Option {
	return func(c *sysConfig) { c.noAutoCollect = !enabled }
}

// WithMemoryBudget sets the System-wide DRAM working-memory budget in
// bytes — the one pool of operator memory (heaps, hash tables, merge
// buffers) the memory broker rations among concurrent sessions. The
// default is a quarter of the device capacity. Session queries request
// grants against this budget before planning; the direct operator calls
// SortCtx, JoinCtx and GroupByCtx take their own budget and bypass it.
func WithMemoryBudget(bytes int64) Option {
	return func(c *sysConfig) { c.memoryBudget = bytes }
}

// System bundles a device, a persistence layer, the statistics catalog
// feeding the query planner, and the memory broker that admits
// concurrent sessions against one shared DRAM budget.
type System struct {
	dev   *pmem.Device
	fac   storage.Factory
	par   int
	batch int
	stats *stats.Cache
	mem   *broker.Broker
}

// New opens a fresh system.
func New(opts ...Option) (*System, error) {
	cfg := sysConfig{
		capacity:  256 << 20,
		backend:   "blocked",
		blockSize: storage.DefaultBlockSize,
	}
	for _, o := range opts {
		o(&cfg)
	}
	dev, err := pmem.Open(pmem.Config{
		Capacity:     cfg.capacity,
		ReadLatency:  cfg.readLatency,
		WriteLatency: cfg.writeLatency,
		TrackWear:    cfg.trackWear,
	})
	if err != nil {
		return nil, err
	}
	fac, err := all.New(cfg.backend, dev, cfg.blockSize)
	if err != nil {
		return nil, err
	}
	total := cfg.memoryBudget
	if total <= 0 {
		total = cfg.capacity / 4
		if total < 1 {
			total = 1
		}
	}
	mem, err := broker.New(total)
	if err != nil {
		return nil, err
	}
	return &System{dev: dev, fac: fac, par: cfg.parallelism, batch: cfg.batchSize, stats: stats.NewCache(!cfg.noAutoCollect), mem: mem}, nil
}

// Device exposes the underlying simulated device.
func (s *System) Device() *Device { return s.dev }

// Factory exposes the persistence layer.
func (s *System) Factory() Factory { return s.fac }

// Backend reports the persistence layer's name.
func (s *System) Backend() string { return s.fac.Name() }

// Parallelism reports the configured worker count (0 and 1 both mean
// serial execution).
func (s *System) Parallelism() int { return s.par }

// BatchSize reports the configured records-per-batch window (0 means
// the executor default).
func (s *System) BatchSize() int { return s.batch }

// Create makes a collection of benchmark-schema records.
func (s *System) Create(name string) (Collection, error) {
	return s.fac.Create(name, RecordSize)
}

// CreateSized makes a collection with a custom record size.
func (s *System) CreateSized(name string, recordSize int) (Collection, error) {
	return s.fac.Create(name, recordSize)
}

// SortCtx runs a sort algorithm under ctx with the given DRAM budget in
// bytes. Cancellation is polled between batches inside the algorithm; on
// any error — including cancellation — the temporaries (runs,
// intermediate inputs) the sort created are destroyed before returning.
func (s *System) SortCtx(ctx context.Context, a SortAlgorithm, in, out Collection, memoryBudget int64) error {
	env := s.NewEnv(memoryBudget).WithContext(ctx)
	if err := a.Sort(env, in, out); err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return nil
}

// JoinCtx runs a join algorithm under ctx with the given DRAM budget in
// bytes; the output collection's record size must be the sum of the
// inputs'. Cancellation is polled between batches (partitioning, builds,
// probes); on any error the join's temporaries (partitions, intermediate
// inputs) are destroyed before returning.
func (s *System) JoinCtx(ctx context.Context, a JoinAlgorithm, left, right, out Collection, memoryBudget int64) error {
	env := s.NewEnv(memoryBudget).WithContext(ctx)
	if err := a.Join(env, left, right, out); err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return nil
}

// NewEnv builds an operator environment for direct algorithm use,
// carrying the system's parallelism.
func (s *System) NewEnv(memoryBudget int64) *Env {
	return algo.NewParallelEnv(s.fac, memoryBudget, s.par)
}

// GroupByCtx runs the write-limited sort-based aggregation (an extension
// in the spirit of the paper's §6 outlook) under ctx with the given DRAM
// budget: in is grouped by key and attribute attr is aggregated; out
// receives one benchmark-schema record per group carrying
// count/sum/min/max in the GroupAttr* slots. It is the chosen sort with a
// combine: the write profile is the sort's, over the groups its memory
// cannot hold rather than the rows, each held and spilled as its
// 40-byte partial and widened to its result record as it reaches out. Cancellation is polled and
// temporaries are swept on error, as in SortCtx.
func (s *System) GroupByCtx(ctx context.Context, a SortAlgorithm, in Collection, attr int, out Collection, memoryBudget int64) error {
	partials, err := aggregate.Partials(in, attr)
	if err != nil {
		return err
	}
	if out == nil || out.RecordSize() != record.Size || out.Len() != 0 {
		return fmt.Errorf("wlpm: group-by output must be an empty collection of %d-byte records", record.Size)
	}
	env := s.NewEnv(memoryBudget).WithContext(ctx)
	if err := sorts.SortFolding(env, a, partials, aggregate.Results(out), aggregate.Combine); err != nil {
		env.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return err
	}
	return nil
}

// MemoryBudget is the System-wide DRAM budget the memory broker rations
// among sessions (WithMemoryBudget; default capacity/4).
func (s *System) MemoryBudget() int64 { return s.mem.Total() }

// MemoryInUse is the sum of the outstanding broker grants.
func (s *System) MemoryInUse() int64 { return s.mem.InUse() }

// Collect gathers column statistics for c in one read-only streaming
// pass — the ANALYZE of this engine — and caches them for the query
// planner: distinct-count sketches drive group-count and join-cardinality
// estimates (making GroupHint optional), equi-depth histograms drive
// filter selectivities, and multi-join plans are reordered
// smallest-build-first from the resulting estimates. Queries auto-collect
// missing statistics on first use unless WithAutoCollect(false) was set.
func (s *System) Collect(c Collection) (*TableStats, error) {
	return s.stats.Collect(c)
}

// TableStats returns the cached statistics of the named collection, or
// nil when none were collected.
func (s *System) TableStats(name string) *TableStats { return s.stats.Lookup(name) }

// InvalidateStats drops the cached statistics of the named collection.
// Call it (or Collect afresh) after destroying a collection and reusing
// its name: the cache validates entries by name and row count only, so a
// recreated table of the same length would otherwise keep serving the
// old distribution to the planner.
func (s *System) InvalidateStats(name string) { s.stats.Invalidate(name) }

// Stats snapshots the device counters.
func (s *System) Stats() Stats { return s.dev.Stats() }

// ResetStats zeroes the device counters.
func (s *System) ResetStats() { s.dev.ResetStats() }

// Wear summarizes device endurance exposure (requires WithWearTracking).
func (s *System) Wear() WearSummary { return s.dev.Wear() }

// EnergyPJ estimates the device energy spent so far in picojoules using
// PCM access energies (§4.3's power-asymmetry remark: write-limited
// algorithms gain more under energy metrics than under latency, because
// the write/read energy ratio is steeper).
func (s *System) EnergyPJ() float64 { return s.dev.Stats().EnergyPJ(0, 0) }

// --- Sort algorithm constructors ---

// ExternalMergeSort is ExMS, the symmetric-I/O baseline.
func ExternalMergeSort() SortAlgorithm { return sorts.NewExternalMergeSort() }

// SelectionSort is SelS, the write-minimal multi-pass selection sort.
func SelectionSort() SortAlgorithm { return sorts.NewSelectionSort() }

// SegmentSort is SegS with write intensity x ∈ [0, 1] (§2.1.1).
func SegmentSort(x float64) SortAlgorithm { return sorts.NewSegmentSort(x) }

// AutoSegmentSort is SegS with its intensity placed at Sort time where
// the planner places SegS's: the cost model's grid search seeded with
// Eq. 4, priced serially.
func AutoSegmentSort() SortAlgorithm { return sorts.NewAutoSegmentSort() }

// HybridSort is HybS with selection-region fraction x ∈ [0, 1] (§2.1.2).
func HybridSort(x float64) SortAlgorithm { return sorts.NewHybridSort(x) }

// LazySort is LaS (§2.1.3).
func LazySort() SortAlgorithm { return sorts.NewLazySort() }

// --- Join algorithm constructors ---

// NestedLoopsJoin is NLJ, the write-minimal read-intensive baseline.
func NestedLoopsJoin() JoinAlgorithm { return joins.NewNestedLoops() }

// HashJoin is HJ, the standard iterative hash join.
func HashJoin() JoinAlgorithm { return joins.NewHash() }

// GraceJoin is GJ, the partition-everything baseline.
func GraceJoin() JoinAlgorithm { return joins.NewGrace() }

// HybridJoin is HybJ with Grace fractions x (left) and y (right) (§2.2.1).
func HybridJoin(x, y float64) JoinAlgorithm { return joins.NewHybridGraceNL(x, y) }

// SegmentedGraceJoin is SegJ materializing the given fraction of
// partitions (§2.2.2).
func SegmentedGraceJoin(intensity float64) JoinAlgorithm {
	return joins.NewSegmentedGrace(intensity)
}

// LazyHashJoin is LaJ (§2.2.3).
func LazyHashJoin() JoinAlgorithm { return joins.NewLazyHash() }

// --- Workload generators ---

// GenerateRecords emits n benchmark records whose keys are a seeded
// permutation of 0..n-1 (the Wisconsin-style sort input).
func GenerateRecords(n int, seed uint64, emit func(rec []byte) error) error {
	return record.Generate(n, seed, record.Emit(emit))
}

// GenerateJoinInputs emits the join microbenchmark: nLeft unique-keyed
// records and nRight records with nRight/nLeft matches per left key.
func GenerateJoinInputs(nLeft, nRight int, seed uint64, emitLeft, emitRight func(rec []byte) error) error {
	return record.GenerateJoin(nLeft, nRight, seed, record.Emit(emitLeft), record.Emit(emitRight))
}

// Key returns a benchmark record's key attribute.
func Key(rec []byte) uint64 { return record.Key(rec) }

// NewRecord builds a benchmark record with key k and derived payload.
func NewRecord(k uint64) []byte { return record.New(k) }

// --- Cost model ---

// Lambda computes the write/read cost ratio of a latency pair.
func Lambda(read, write time.Duration) float64 {
	if read <= 0 {
		return 1
	}
	return float64(write) / float64(read)
}

// OptimalSegmentSortIntensity is Eq. 4's write intensity, the minimizer of
// the paper's SegS cost (Eq. 2); sizes in buffers. The shipped kernel's
// profile can price another x lower: AutoSegmentSort places its knob by
// that profile.
func OptimalSegmentSortIntensity(t, m, lambda float64) float64 {
	return cost.SegmentSortOptimalX(t, m, lambda)
}

// HybridJoinSaddle returns the Eq. 7–8 stationary point of the HybJ cost
// (Eq. 6), a saddle: no (x, y) prices HybJ below both NLJ and GJ.
func HybridJoinSaddle(t, v, m, lambda float64) (x, y float64) {
	return cost.HybridJoinSaddle(t, v, m, lambda)
}

// KendallTau is the rank-correlation coefficient of the validation study.
func KendallTau(a, b []float64) float64 { return cost.KendallTau(a, b) }

// SegmentSortCost evaluates Eq. 1: the cost of SegS at write intensity x
// for an input of t buffers with m buffers of memory, in buffer-read
// units. x = 1 degenerates to external mergesort, x = 0 to selection
// sort.
func SegmentSortCost(x, t, m, lambda float64) float64 {
	return cost.SegmentSortCost(x, t, m, lambda)
}

// HybridJoinCost evaluates Eq. 6 for HybJ at intensities (x, y).
func HybridJoinCost(x, y, t, v, m, lambda float64) float64 {
	return cost.HybridJoinCost(x, y, t, v, m, lambda)
}

// GraceJoinCost evaluates r(|T|+|V|)(2+λ).
func GraceJoinCost(t, v, lambda float64) float64 { return cost.GraceJoinCost(t, v, lambda) }

// IOProfile is an estimated read/write volume in buffer units, priced via
// PriceP(read, write, par). Unlike the printed-equation surfaces above,
// a profile models this library's shipped implementation of an algorithm:
// SortProfile and JoinProfile return what the engine's planner prices a
// plan that pins the algorithm at, and what the Fig. 12 concordance
// study validates — the numbers an optimizer embedding wlpm should rank
// with.
type IOProfile = cost.Profile

// SortProfile estimates sort a over t input buffers with m buffers of
// memory at write/read ratio λ.
func SortProfile(a SortAlgorithm, t, m, lambda float64) IOProfile {
	return a.Profile(cost.Emit{}, t, m, lambda)
}

// JoinProfile estimates join a for t build-side (left) and v probe-side
// buffers with m buffers of memory at write/read ratio λ.
func JoinProfile(a JoinAlgorithm, t, v, m, lambda float64) IOProfile {
	return a.Profile(cost.Emit{}, t, v, m, lambda)
}

// --- Experiments ---

// Experiments lists the reproducible paper artifacts (fig2…fig12,
// table1, table2) and the scaling experiment.
func Experiments() []string { return bench.Experiments() }

// RunExperiment regenerates one paper figure or table.
func RunExperiment(id string, cfg ExperimentConfig) ([]*Report, error) {
	return bench.Run(id, cfg)
}

// Version identifies this reproduction.
const Version = "1.0.0"
