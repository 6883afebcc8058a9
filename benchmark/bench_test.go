package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDeclared asserts got holds exactly the declared metrics, each
// with its declared unit.
func checkDeclared(t *testing.T, kind string, declared map[string]string, got map[string]metric) {
	t.Helper()
	for name, unit := range declared {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s metric %s is in BENCHMARK.json but was not emitted", kind, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %s emitted in %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s metric %s was emitted but is not in BENCHMARK.json", kind, name)
		}
	}
}

// TestSmoke runs every workload in the smoke configuration: measured
// twice with one seed (the exact metrics must repeat), once with
// another (the checks must still pass), and traced (every per-layer
// metric, the span file).
func TestSmoke(t *testing.T) {
	bench := loadBenchmarkJSON(t)
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, e := range bench.EndToEnd {
		endToEndUnits[e.Name] = e.Unit
	}
	for _, p := range bench.PerLayer {
		perLayerUnits[p.Name] = p.Unit
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	ctx := context.Background()
	dir := t.TempDir()
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, bench.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			measured := func(seed uint64) *result {
				t.Helper()
				res, err := runMeasured(ctx, w, smokeConfig(seed, dir), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Metrics["failed_op_share"].Value != 0 {
					t.Fatalf("seed %d: %d of %d ops failed", seed, res.Failed, res.Attempted)
				}
				return res
			}
			a, b := measured(1), measured(1)
			measured(2)
			checkDeclared(t, "end-to-end", endToEndUnits, driverResult(a, false).Metrics)
			for _, d := range endToEnd {
				if _, ok := a.Metrics[d.name]; !ok {
					t.Errorf("%s not reported", d.name)
				}
				if d.exact && a.Metrics[d.name] != b.Metrics[d.name] {
					t.Errorf("%s did not repeat for one seed: %v then %v", d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
				}
				if d.gated && a.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v: gated metrics must never be zero", d.name, a.Metrics[d.name].Value)
				}
			}

			var log bytes.Buffer
			tr, err := runTraced(ctx, w, smokeConfig(1, dir), &log)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run failed its checks:\n%s", log.String())
			}
			checkDeclared(t, "per-layer", perLayerUnits, tr.Metrics)
			for _, name := range layersExposed[w.name] {
				if tr.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a measurement", name, tr.Metrics[name].Value)
				}
			}
			var doc traceFile
			if err := readJSON(filepath.Join(dir, "trace-"+w.name+".json"), &doc); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range doc.Spans {
				if s.Name == "op" && s.Parent == 0 {
					roots++
				} else if s.Parent == 0 {
					t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
				}
			}
			if roots == 0 || roots == len(doc.Spans) {
				t.Errorf("span file has %d spans, %d of them op roots: want roots with children", len(doc.Spans), roots)
			}
			if !strings.Contains(log.String(), "bench.trace_overhead_pct") {
				t.Errorf("traced run did not report bench.trace_overhead_pct")
			}
		})
	}
}

// layersExposed names, per workload, per-layer metrics its traced run
// exists to measure: they must come out as measurements, not zeros.
var layersExposed = map[string][]string{
	"sort_kernels": {"pmem.read_ns_per_cl", "storage.chunk_ns_per_rec", "xheap.replace_ns", "sorts.LaS.cl_reads", "sorts.final_merge.cl_writes", "sorts.ExMS.p2_wall_ms"},
	"join_kernels": {"record.vec_append_ns", "joins.GJ.cl_writes", "joins.build.cl_reads", "algo.p2_wall_ratio", "algo.p2_cpu_ratio"},
	"query_star":   {"aggregate.groupby_ms", "exec.parse_us", "exec.compile_us", "cost.best_plan_us", "cost.predicted_over_modelled", "exec.pipelined_over_materialized_writes", "wlpm.open_ms", "wlpm.drain_ms", "stats.collect_ms"},
	"serve_stream": {"exec.stream_ns_per_row", "wlpm.inproc_ms", "server.handler_ms", "server.encode_ns_per_row", "client.first_row_ms", "client.drain_ms", "server.wire_bytes_per_row", "broker.high_water_share"},
	"serve_point":  {"exec.compile_us", "broker.acquire_us", "wlpm.inproc_ms", "server.handler_ms", "client.first_row_ms", "pmem.cl_writes_per_op"},
}

func TestSeedSelectsData(t *testing.T) {
	a, err := genRecords(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := genRecords(1000, 1)
	other, _ := genRecords(1000, 2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed generated different tables")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds generated the same table")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{3: 50, 60: 80, 100: 90, 200: 95, 2000: 99, 3000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", n, got, want)
		}
		if p := tailPercentile(n); p != 50 && n-rank(n, p) < 10 {
			t.Errorf("p%d of %d samples has fewer than ten beyond it", p, n)
		}
	}
}

// TestCompare feeds -compare an A/A pair, a regression within and
// beyond a bound, and a moved exact metric.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(m map[string]metric)) string {
		m := newMetricSet(endToEnd)
		for i, d := range endToEnd {
			m.set(d.name, float64(100+i))
		}
		mutate(m.values)
		path := filepath.Join(dir, name)
		set := resultSet{Seed: 1, Seconds: refSeconds, Workloads: map[string]*result{"sort_kernels": {Correct: true, Attempted: 1, Metrics: m.values}}}
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bump := func(name string, factor float64) func(map[string]metric) {
		return func(m map[string]metric) {
			v := m[name]
			v.Value *= factor
			m[name] = v
		}
	}
	base := write("a.json", func(map[string]metric) {})
	benchPath := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name   string
		mutate func(map[string]metric)
		ok     bool
	}{
		{"same", func(map[string]metric) {}, true},
		{"p50 20% slower", bump("op_p50_ms", 1.2), true},
		{"p50 30% slower", bump("op_p50_ms", 1.3), false},
		{"throughput 30% lower", bump("ops_per_s", 0.7), false},
		{"throughput 30% higher", bump("ops_per_s", 1.3), true},
		{"allocation 6% up", bump("alloc_mb_per_op", 1.06), false},
		{"one more cacheline written", bump("cl_writes_per_op", 1.001), false},
		{"modelled time moved", bump("modelled_ms_per_op", 0.999), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, benchPath, base, write("b.json", tc.mutate))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare passed = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}
