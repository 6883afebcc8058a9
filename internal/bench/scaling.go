package bench

// The scaling experiment is not a paper artifact: it measures the
// partition-parallel execution subsystem this repository adds on top of
// Viglas'14 — wall-clock and modelled-response speedup versus worker
// count, with the simulated cacheline writes of the parallelized phases
// held byte-exactly to the serial counts (the write-limited invariant).
//
// Two workloads run per worker count: an ExMS sort, whose final merge is
// the splitter-partitioned parallel merge (sorts.FinalMergePhase), and a
// GJ join, whose hash-table builds fan out to per-range sub-tables
// (joins.BuildPhase). Both phases are bracketed by the environment's
// phase recorder, so the experiment reports the lifted phase's own
// speedup next to the whole operator's — and gates on the phase's write
// count, which parallelism must not move at all.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// scalingWorkers is the P sweep of the scaling experiment.
var scalingWorkers = []int{1, 2, 4, 8}

// scalingMemFrac is the memory budget of both scaling workloads, as a
// fraction of the relevant input: the middle of the paper's sweeps.
const scalingMemFrac = 0.05

// scalingReps repeats each (workload, P) cell and keeps the fastest wall
// clocks: spin-mode walls carry scheduler noise of the same order as the
// smaller phase times on small hosts, and the minimum is the usual
// low-noise estimator for a deterministic workload. Counters, responses
// and checksums are identical across repetitions (the output checksum is
// verified to be), so only the walls are folded.
const scalingReps = 3

// scalingRun is one measured (workload, P) cell: whole-operator metrics,
// the lifted phase's accounting, the cost model's response prediction at
// this P, and an FNV-1a checksum of the output byte stream.
type scalingRun struct {
	m         Metrics
	phase     algo.PhaseStat
	predicted time.Duration
	checksum  uint64
}

// scalingJSONRow is one cell of BENCH_scaling.json.
type scalingJSONRow struct {
	Workload    string  `json:"workload"`
	Workers     int     `json:"workers"`
	WallMs      float64 `json:"wall_ms"`
	ResponseMs  float64 `json:"response_ms"`
	PredictedMs float64 `json:"predicted_response_ms"`
	SimReads    uint64  `json:"sim_reads"`
	SimWrites   uint64  `json:"sim_writes"`
	Checksum    string  `json:"output_checksum"`
	PhaseWallMs float64 `json:"phase_wall_ms"`
	PhaseRespMs float64 `json:"phase_response_ms"`
	PhaseWrites uint64  `json:"phase_writes"`
}

// scalingSummary compares a workload's P=8 run against its serial run.
type scalingSummary struct {
	WallSpeedup      float64 `json:"wall_speedup"`
	ResponseSpeedup  float64 `json:"response_speedup"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	PhaseWallSpeedup float64 `json:"phase_wall_speedup"`
	PhaseRespSpeedup float64 `json:"phase_response_speedup"`
	ByteIdentical    bool    `json:"byte_identical"` // checksums equal at every P
	WriteDrift       int64   `json:"write_drift"`    // lifted phase, max |P − serial| cachelines; must be 0
}

// scalingDoc is the BENCH_scaling.json document.
type scalingDoc struct {
	Scale   float64                   `json:"scale"`
	Backend string                    `json:"backend"`
	MemFrac float64                   `json:"mem_frac"`
	Workers []int                     `json:"workers"`
	Rows    []scalingJSONRow          `json:"rows"`
	Summary map[string]scalingSummary `json:"summary"`
}

// Scaling measures partition-parallel speedup for one sort (ExMS, the
// fully parallelizable profile) and one join (GJ) over P ∈ {1, 2, 4, 8}
// workers, reporting measured wall clock and modelled response next to
// the cost model's PriceP prediction at each P.
//
// The device runs in spin mode: every charged cacheline latency is a real
// deadline-based delay, so concurrent workers overlap their device waits
// exactly as they would on real asymmetric-memory hardware. Wall is
// therefore the full response time (CPU plus overlapped I/O) and is the
// quantity parallelism improves — notably even on a single-core host,
// where only the I/O share overlaps. The lifted phases (the sort's final
// merge, the join's table builds) are reported separately: their writes
// must not move by a single cacheline, and the output byte stream must be
// identical at every P. Both gates fail the experiment, and the JSON
// summary records them for CI.
func Scaling(cfg Config) ([]*Report, error) {
	cfg.Spin = true
	n := cfg.SortRows()
	nLeft, nRight := cfg.JoinRows()
	bs := float64(cfg.BlockSize)
	// Price profiles in nanoseconds per buffer exactly as fig12 does:
	// device latency plus the engine's CPU charge, per block of
	// cachelines. The prediction excludes the filesystem software
	// overhead, which parallelism does not move.
	linesPerBuf := bs / 64
	readNs := (float64(cfg.ReadLatency) + float64(cfg.CPUPerLine)) * linesPerBuf
	writeNs := (float64(cfg.WriteLatency) + float64(cfg.CPUPerLine)) * linesPerBuf

	tSort := float64(n) * record.Size / bs
	tJoin := float64(nLeft) * record.Size / bs
	vJoin := float64(nRight) * record.Size / bs

	workloads := []struct {
		name    string
		phase   string
		profile cost.Profile
		run     func(c Config) (Metrics, algo.PhaseStat, uint64, error)
	}{
		{
			name:    "sort-ExMS",
			phase:   sorts.FinalMergePhase,
			profile: cost.Emit{}.ExMS(tSort, scalingMemFrac*tSort),
			run: func(c Config) (Metrics, algo.PhaseStat, uint64, error) {
				return runScalingSort(c, n)
			},
		},
		{
			name:    "join-GJ",
			phase:   joins.BuildPhase,
			profile: cost.Emit{}.GJ(tJoin, vJoin),
			run: func(c Config) (Metrics, algo.PhaseStat, uint64, error) {
				return runScalingJoin(c, nLeft, nRight)
			},
		},
	}

	doc := &scalingDoc{
		Scale:   cfg.Scale,
		Backend: cfg.Backend,
		MemFrac: scalingMemFrac,
		Workers: scalingWorkers,
		Summary: map[string]scalingSummary{},
	}
	cols := []string{"workers", "wall (ms)", "speedup", "resp (ms)", "resp speedup",
		"pred resp (ms)", "pred speedup", "Δreads", "Δwrites"}
	sortRep := &Report{
		ID: "scaling-sort",
		Title: fmt.Sprintf("Partition-parallel ExMS sort (n=%d, mem=%.0f%%, backend=%s)",
			n, scalingMemFrac*100, cfg.Backend),
		Columns: cols,
	}
	joinRep := &Report{
		ID: "scaling-join",
		Title: fmt.Sprintf("Partition-parallel GJ join (%d ⋈ %d, mem=%.0f%% of left, backend=%s)",
			nLeft, nRight, scalingMemFrac*100, cfg.Backend),
		Columns: cols,
	}
	phaseRep := &Report{
		ID:    "scaling-phases",
		Title: "The lifted phases: final sort merge and hash-table builds",
		Columns: []string{"workload", "phase", "workers", "wall (ms)", "speedup",
			"resp (ms)", "resp speedup", "phase writes"},
	}
	reps := map[string]*Report{"sort-ExMS": sortRep, "join-GJ": joinRep}

	for _, w := range workloads {
		var base scalingRun
		runs := make([]scalingRun, 0, len(scalingWorkers))
		for _, p := range scalingWorkers {
			pcfg := cfg
			pcfg.Parallelism = p
			cfg.logf("scaling: %s at P=%d", w.name, p)
			m, phase, sum, err := w.run(pcfg)
			if err != nil {
				return nil, fmt.Errorf("scaling %s (P=%d): %w", w.name, p, err)
			}
			for rep := 1; rep < scalingReps; rep++ {
				m2, phase2, sum2, err := w.run(pcfg)
				if err != nil {
					return nil, fmt.Errorf("scaling %s (P=%d, rep %d): %w", w.name, p, rep, err)
				}
				if sum2 != sum {
					return nil, fmt.Errorf("scaling %s (P=%d): output bytes differ across repetitions", w.name, p)
				}
				if m2.Wall < m.Wall {
					m.Wall = m2.Wall
				}
				if phase2.Wall < phase.Wall {
					phase.Wall = phase2.Wall
				}
			}
			r := scalingRun{
				m:         m,
				phase:     phase,
				predicted: time.Duration(w.profile.PriceP(readNs, writeNs, float64(p))),
				checksum:  sum,
			}
			if p == 1 {
				base = r
			}
			runs = append(runs, r)

			phaseResp := phaseResponse(cfg, phase.Stats)
			doc.Rows = append(doc.Rows, scalingJSONRow{
				Workload:    w.name,
				Workers:     p,
				WallMs:      float64(m.Wall) / float64(time.Millisecond),
				ResponseMs:  float64(m.Response) / float64(time.Millisecond),
				PredictedMs: float64(r.predicted) / float64(time.Millisecond),
				SimReads:    m.Reads,
				SimWrites:   m.Writes,
				Checksum:    fmt.Sprintf("%016x", sum),
				PhaseWallMs: float64(phase.Wall) / float64(time.Millisecond),
				PhaseRespMs: float64(phaseResp) / float64(time.Millisecond),
				PhaseWrites: phase.Stats.Writes,
			})
			reps[w.name].Rows = append(reps[w.name].Rows, []string{
				fmt.Sprintf("%d", p),
				fmtDur(m.Wall),
				fmt.Sprintf("%.2fx", speedup(base.m.Wall, m.Wall)),
				fmtDur(m.Response),
				fmt.Sprintf("%.2fx", speedup(base.m.Response, m.Response)),
				fmtDur(r.predicted),
				fmt.Sprintf("%.2fx", speedup(base.predicted, r.predicted)),
				fmtDrift(base.m.Reads, m.Reads),
				fmtDrift(base.m.Writes, m.Writes),
			})
			phaseRep.Rows = append(phaseRep.Rows, []string{
				w.name, w.phase, fmt.Sprintf("%d", p),
				fmtDur(phase.Wall),
				fmt.Sprintf("%.2fx", speedup(base.phase.Wall, phase.Wall)),
				fmtDur(phaseResp),
				fmt.Sprintf("%.2fx", speedup(phaseResponse(cfg, base.phase.Stats), phaseResp)),
				fmt.Sprintf("%d", phase.Stats.Writes),
			})
		}

		s := scalingSummary{ByteIdentical: true}
		last := runs[len(runs)-1]
		s.WallSpeedup = speedup(base.m.Wall, last.m.Wall)
		s.ResponseSpeedup = speedup(base.m.Response, last.m.Response)
		s.PredictedSpeedup = speedup(base.predicted, last.predicted)
		s.PhaseWallSpeedup = speedup(base.phase.Wall, last.phase.Wall)
		s.PhaseRespSpeedup = speedup(phaseResponse(cfg, base.phase.Stats), phaseResponse(cfg, last.phase.Stats))
		for _, r := range runs {
			if r.checksum != base.checksum {
				s.ByteIdentical = false
			}
			d := int64(r.phase.Stats.Writes) - int64(base.phase.Stats.Writes)
			if d < 0 {
				d = -d
			}
			if d > s.WriteDrift {
				s.WriteDrift = d
			}
		}
		doc.Summary[w.name] = s
		if !s.ByteIdentical {
			return nil, fmt.Errorf("scaling %s: output bytes differ across worker counts", w.name)
		}
		if s.WriteDrift != 0 {
			return nil, fmt.Errorf("scaling %s: %d cacheline write drift in the %s phase across worker counts",
				w.name, s.WriteDrift, w.phase)
		}
	}

	notes := []string{
		"Δ columns are cacheline-count drift vs the serial run; the lifted phases' writes are " +
			"byte-exact at every P (gated), total drift stays within a few percent.",
		"pred resp prices the workload's I/O profile with cost.PriceP at each P — the same " +
			"phase-level parallelism model the planner uses — excluding filesystem software overhead.",
		fmt.Sprintf("Host has %d core(s): the CPU share of the response parallelizes only across real "+
			"cores, so single-core hosts show just the overlapped-device-latency share of the speedup.",
			runtime.NumCPU()),
	}
	sortRep.Notes = append(sortRep.Notes, notes...)
	joinRep.Notes = append(joinRep.Notes, notes...)
	phaseRep.Notes = append(phaseRep.Notes,
		"The sort's final merge reads runs and writes the output (its writes equal the serial merge's); "+
			"the join's builds are read-only, so their phase writes are 0 at every P.",
		"A read-only phase's device share is reads at 10 ns/line, so on a single-core host the build "+
			"phase is CPU-bound and its wall clock stays near parity while its modelled response scales; "+
			"the write-heavy final merge shows the wall speedup directly.")

	if cfg.ScalingJSON != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.ScalingJSON, append(blob, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("scaling: writing %s: %w", cfg.ScalingJSON, err)
		}
		cfg.logf("scaling: wrote %s", cfg.ScalingJSON)
	}
	return []*Report{sortRep, joinRep, phaseRep}, nil
}

// runScalingSort is measureSort with a phase recorder attached and the
// output checksummed after measurement.
func runScalingSort(cfg Config, n int) (Metrics, algo.PhaseStat, uint64, error) {
	payload := int64(n) * record.Size
	r, err := newRig(cfg, cfg.Backend, payload)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	in, err := r.loadSortInput(n)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	out, err := r.fac.Create("output", record.Size)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	budget := int64(scalingMemFrac * float64(payload))
	rec := algo.NewPhaseRecorder()
	env := algo.NewParallelEnv(r.fac, budget, cfg.Parallelism).WithPhases(rec)
	a := sorts.NewExternalMergeSort()
	m, err := r.measure(cfg, func() error { return a.Sort(env, in, out) })
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	if out.Len() != n {
		return Metrics{}, algo.PhaseStat{}, 0, fmt.Errorf("output %d records, want %d", out.Len(), n)
	}
	sum, err := checksumRecords(out)
	return m, rec.Phase(sorts.FinalMergePhase), sum, err
}

// runScalingJoin is measureJoin's phase-recording, checksumming twin.
func runScalingJoin(cfg Config, nLeft, nRight int) (Metrics, algo.PhaseStat, uint64, error) {
	payload := int64(nLeft+nRight) * record.Size
	r, err := newRig(cfg, cfg.Backend, payload*2)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	left, right, err := r.loadJoinInputs(nLeft, nRight)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	out, err := r.fac.Create("output", record.Size)
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	budget := int64(scalingMemFrac * float64(nLeft) * record.Size)
	rec := algo.NewPhaseRecorder()
	env := algo.NewParallelEnv(r.fac, budget, cfg.Parallelism).WithPhases(rec)
	a := joins.NewGrace()
	m, err := r.measure(cfg, func() error { return a.Join(env, left, right, out) })
	if err != nil {
		return Metrics{}, algo.PhaseStat{}, 0, err
	}
	if out.Len() != nRight {
		return Metrics{}, algo.PhaseStat{}, 0, fmt.Errorf("output %d records, want %d", out.Len(), nRight)
	}
	sum, err := checksumRecords(out)
	return m, rec.Phase(joins.BuildPhase), sum, err
}

// checksumRecords is the FNV-1a hash of the collection's byte stream in
// record order — the byte-identity witness of BENCH_scaling.json.
func checksumRecords(c storage.Collection) (uint64, error) {
	h := fnv.New64a()
	it := c.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return h.Sum64(), nil
		}
		if err != nil {
			return 0, err
		}
		h.Write(rec)
	}
}

// phaseResponse is measure's response model applied to one phase's
// counter delta: overlapped device latency plus software overhead plus
// the modelled CPU share, overlap-scaled.
func phaseResponse(cfg Config, st pmem.Stats) time.Duration {
	cpu := time.Duration(st.Reads+st.Writes) * cfg.CPUPerLine
	if st.SimIOTime > 0 && st.SimIOOverlap < st.SimIOTime {
		cpu = time.Duration(float64(cpu) * float64(st.SimIOOverlap) / float64(st.SimIOTime))
	}
	return st.SimIOOverlap + st.SoftTime + cpu
}

func speedup(base, cur time.Duration) float64 {
	if cur == 0 {
		return 1
	}
	return float64(base) / float64(cur)
}

func fmtDrift(base, cur uint64) string {
	if base == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.2f%%", (float64(cur)/float64(base)-1)*100)
}
