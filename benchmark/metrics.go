package main

import (
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json carries the same names,
// units and directions for the driver; bench_test.go holds the two in
// step.
type metricDef struct {
	name  string
	unit  string
	exact bool // repeats exactly for one seed: -compare demands equality
	gated bool // listed in BENCHMARK.json's end_to_end (never zero on any workload)
}

// endToEnd is what a user of the system sees; every workload reports
// every one. The bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", gated: true},
	{name: "op_p50_ms", unit: "ms", gated: true},
	{name: "op_tail_ms", unit: "ms", gated: true},
	{name: "ops_per_s", unit: "1/s", gated: true},
	{name: "cpu_ms_per_op", unit: "ms", gated: true},
	{name: "alloc_mb_per_op", unit: "MB", gated: true},
	{name: "modelled_ms_per_op", unit: "ms", exact: true},
	{name: "modelled_cost_per_op", unit: "cl-reads", exact: true, gated: true},
	{name: "cl_reads_per_op", unit: "cachelines", exact: true, gated: true},
	{name: "cl_writes_per_op", unit: "cachelines", exact: true},
	{name: "failed_op_share", unit: "ratio", exact: true},
}

// kernelFacets are the per-algorithm measurements of the two kernel
// workloads: sorts.<A>.<facet> and joins.<A>.<facet>.
var kernelFacets = []metricDef{
	{name: "wall_ms", unit: "ms"},
	{name: "cpu_ms", unit: "ms"},
	{name: "modelled_ms", unit: "ms"},
	{name: "cl_writes", unit: "cachelines"},
	{name: "cl_reads", unit: "cachelines"},
	{name: "alloc_mb", unit: "MB"},
}

var (
	sortNames = []string{"ExMS", "SegS", "LaS"}
	joinNames = []string{"GJ", "SegJ", "LaJ"}
)

// perLayer lists the traced run's metrics, layer by layer. A workload
// that does not exercise a layer reports 0 for its metrics (README.md
// says which apply where).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "pmem.read_ns_per_cl", unit: "ns"},
		{name: "pmem.write_ns_per_cl", unit: "ns"},
		{name: "pmem.read_ops_per_op", unit: "count"},
		{name: "pmem.write_ops_per_op", unit: "count"},
		{name: "pmem.cl_writes_per_op", unit: "cachelines"},
		{name: "storage.scan_ns_per_rec", unit: "ns"},
		{name: "storage.chunk_ns_per_rec", unit: "ns"},
		{name: "storage.append_ns_per_rec", unit: "ns"},
		{name: "storage.cl_writes_per_rec", unit: "cachelines"},
		{name: "xheap.replace_ns", unit: "ns"},
		{name: "record.vec_append_ns", unit: "ns"},
	}
	for _, a := range sortNames {
		for _, f := range kernelFacets {
			defs = append(defs, metricDef{name: "sorts." + a + "." + f.name, unit: f.unit})
		}
	}
	defs = append(defs,
		metricDef{name: "sorts.final_merge.wall_ms", unit: "ms"},
		metricDef{name: "sorts.final_merge.cl_writes", unit: "cachelines"},
		metricDef{name: "sorts.ExMS.p2_wall_ms", unit: "ms"},
	)
	for _, a := range joinNames {
		for _, f := range kernelFacets {
			defs = append(defs, metricDef{name: "joins." + a + "." + f.name, unit: f.unit})
		}
	}
	return append(defs,
		metricDef{name: "joins.build.wall_ms", unit: "ms"},
		metricDef{name: "joins.build.cl_reads", unit: "cachelines"},
		metricDef{name: "algo.p2_wall_ratio", unit: "ratio"},
		metricDef{name: "algo.p2_cpu_ratio", unit: "ratio"},
		metricDef{name: "aggregate.groupby_ms", unit: "ms"},
		metricDef{name: "exec.parse_us", unit: "us"},
		metricDef{name: "exec.compile_us", unit: "us"},
		metricDef{name: "cost.best_plan_us", unit: "us"},
		metricDef{name: "cost.predicted_over_modelled", unit: "ratio"},
		metricDef{name: "exec.est_rows_err_pct", unit: "%"},
		metricDef{name: "exec.replans_per_op", unit: "count"},
		metricDef{name: "exec.pipelined_over_materialized_writes", unit: "ratio"},
		metricDef{name: "exec.stream_ns_per_row", unit: "ns"},
		metricDef{name: "wlpm.open_ms", unit: "ms"},
		metricDef{name: "wlpm.drain_ms", unit: "ms"},
		metricDef{name: "stats.collect_ms", unit: "ms"},
		metricDef{name: "broker.acquire_us", unit: "us"},
		metricDef{name: "broker.admit_wait_ms_per_op", unit: "ms"},
		metricDef{name: "server.gate_wait_ms_per_op", unit: "ms"},
		metricDef{name: "broker.high_water_share", unit: "ratio"},
		metricDef{name: "wlpm.inproc_ms", unit: "ms"},
		metricDef{name: "server.handler_ms", unit: "ms"},
		metricDef{name: "server.encode_ns_per_row", unit: "ns"},
		metricDef{name: "client.decode_ns_per_row", unit: "ns"},
		metricDef{name: "client.first_row_ms", unit: "ms"},
		metricDef{name: "client.drain_ms", unit: "ms"},
		metricDef{name: "server.wire_bytes_per_row", unit: "B"},
		metricDef{name: "host.peak_rss_mb", unit: "MB"},
		metricDef{name: "host.gc_pause_ms_per_op", unit: "ms"},
		metricDef{name: "host.gc_cycles_per_op", unit: "count"},
		metricDef{name: "bench.trace_overhead_pct", unit: "%"},
	)
}

// metricSet collects a run's values against a definition list; set
// panics on a name the list does not have, so a typo cannot add a metric
// BENCHMARK.json does not know.
type metricSet struct {
	units  map[string]string
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{units: make(map[string]string, len(defs)), values: make(map[string]metric, len(defs))}
	for _, d := range defs {
		ms.units[d.name] = d.unit
		ms.values[d.name] = metric{Unit: d.unit}
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	unit, ok := ms.units[name]
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	ms.values[name] = metric{Value: v, Unit: unit}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mib(bytes uint64) float64       { return float64(bytes) / (1 << 20) }

// tailPercentile is the highest of the usual percentiles that still has
// at least ten of n samples beyond it; small samples fall back to the
// median.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 80, 75} {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n, p int) int {
	r := (n*p + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank percentile of the samples.
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[rank(len(s), p)-1]
}

func median(samples []time.Duration) time.Duration { return percentile(samples, 50) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
