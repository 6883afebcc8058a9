// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§4), regenerating the same rows and
// series. Scale is a knob — cardinalities shrink proportionally while
// memory percentages, join fan-out and λ stay fixed, so the *shapes*
// (who wins, by what factor, where crossovers fall) are preserved.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"wlpm/internal/pmem"
)

// Paper-scale cardinalities (§4.1): ten million rows for sorting, one
// million joining ten million for joins.
const (
	PaperSortRows      = 10_000_000
	PaperJoinLeftRows  = 1_000_000
	PaperJoinRightRows = 10_000_000
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the paper's cardinalities (1.0 = full size;
	// default 0.02 keeps the suite minutes-fast while preserving shapes).
	Scale float64
	// Backend used by single-implementation experiments (default
	// "blocked", the minimal-overhead layer the paper reports on).
	Backend string
	// BlockSize of the persistence layer (default 1024, the paper's).
	BlockSize int
	// ReadLatency and WriteLatency of the device (defaults 10 ns/150 ns).
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// CPUPerLine models the native processing cost per cacheline touched
	// (scan, compare, copy, heap work — the paper's pre-delay C++ CPU
	// time on a 2.5 GHz Xeon, ~20 cycles per line). Default 8 ns. See
	// Metrics.Response.
	CPUPerLine time.Duration
	// MemoryPoints overrides the default memory sweep (fractions of the
	// relevant input size).
	MemoryPoints []float64
	// Parallelism is the operator worker count (0 and 1 both mean the
	// paper's serial execution). The scaling experiment sweeps it.
	Parallelism int
	// ScalingJSON, when non-empty, is the path where the scaling
	// experiment writes its machine-readable result (BENCH_scaling.json).
	// Other experiments ignore it.
	ScalingJSON string
	// Spin injects device latencies as real (overlappable) delays instead
	// of only accounting them, like the paper's idle-loop
	// instrumentation. The scaling experiment forces it on: overlapping
	// device latency across workers is the speedup partition parallelism
	// buys, and it shows even on a single-core host.
	Spin bool
	// Verbose emits progress lines to Log.
	Verbose bool
	Log     io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Backend == "" {
		c.Backend = "blocked"
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1024
	}
	if c.ReadLatency <= 0 {
		c.ReadLatency = pmem.DefaultReadLatency
	}
	if c.WriteLatency <= 0 {
		c.WriteLatency = pmem.DefaultWriteLatency
	}
	if c.CPUPerLine <= 0 {
		c.CPUPerLine = 8 * time.Nanosecond
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose && c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// SortRows is the sort-benchmark cardinality at this scale.
func (c Config) SortRows() int { return scaled(PaperSortRows, c.Scale) }

// JoinRows is the join-benchmark cardinality pair at this scale.
func (c Config) JoinRows() (left, right int) {
	return scaled(PaperJoinLeftRows, c.Scale), scaled(PaperJoinRightRows, c.Scale)
}

func scaled(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 1 {
		v = 1
	}
	return v
}

// Metrics is one measured run.
type Metrics struct {
	Reads    uint64        // cachelines
	Writes   uint64        // cachelines
	SimIO    time.Duration // device latencies, summed serially (reads·r + writes·w)
	SimIOOvl time.Duration // device latencies on the overlap clock (≤ SimIO; equal when serial)
	Soft     time.Duration // modelled filesystem software overhead
	CPU      time.Duration // modelled native CPU: (reads+writes)·CPUPerLine, overlap-scaled
	Wall     time.Duration // actual Go wall time (not in Response)
	Response time.Duration // SimIOOvl + Soft + CPU, the reported figure
}

func (m Metrics) String() string {
	return fmt.Sprintf("resp=%v reads=%d writes=%d", m.Response.Round(time.Microsecond), m.Reads, m.Writes)
}

// Report is one regenerated table or figure series.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Print renders the report as a markdown table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", r.ID, r.Title)
	if len(r.Columns) > 0 {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r.Columns, " | "))
		seps := make([]string, len(r.Columns))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
		for _, row := range r.Rows {
			fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner produces the reports of one experiment.
type Runner func(cfg Config) ([]*Report, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig2":    Fig2,
	"fig5":    Fig5,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"fig11":   Fig11,
	"fig12":   Fig12,
	"table1":  Table1,
	"table2":  Table2,
	"scaling": Scaling,
}

// Experiments lists the registered experiment ids in presentation order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric-aware: fig2 < fig5 < … < fig12 < table1 < table2.
		return padID(ids[i]) < padID(ids[j])
	})
	return ids
}

func padID(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			return fmt.Sprintf("%s%04s", id[:i], id[i:])
		}
	}
	return id
}

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
	}
	return r(cfg.withDefaults())
}

// fmtDur renders a duration in milliseconds with fixed precision, the
// harness's response-time unit.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// fmtMillions renders a cacheline count in millions, matching the paper's
// tables.
func fmtMillions(n uint64) string {
	return fmt.Sprintf("%.3f", float64(n)/1e6)
}

func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
