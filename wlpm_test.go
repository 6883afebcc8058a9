package wlpm_test

import (
	"context"
	"io"
	"slices"
	"testing"
	"time"

	"wlpm"
)

func newSystem(t *testing.T, opts ...wlpm.Option) *wlpm.System {
	t.Helper()
	sys, err := wlpm.New(append([]wlpm.Option{wlpm.WithCapacity(32 << 20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemDefaults(t *testing.T) {
	sys := newSystem(t)
	if sys.Backend() != "blocked" {
		t.Errorf("default backend %q, want blocked", sys.Backend())
	}
	if got := sys.Device().Lambda(); got != 15 {
		t.Errorf("default λ = %v, want 15", got)
	}
}

func TestSystemOptions(t *testing.T) {
	sys := newSystem(t,
		wlpm.WithBackend("pmfs"),
		wlpm.WithBlockSize(2048),
		wlpm.WithLatencies(20*time.Nanosecond, 100*time.Nanosecond),
		wlpm.WithWearTracking(),
	)
	if sys.Backend() != "pmfs" {
		t.Errorf("backend %q, want pmfs", sys.Backend())
	}
	if got := sys.Device().Lambda(); got != 5 {
		t.Errorf("λ = %v, want 5", got)
	}
	if sys.Factory().BlockSize() != 2048 {
		t.Errorf("block size %d, want 2048", sys.Factory().BlockSize())
	}
	c, err := sys.Create("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(wlpm.NewRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !sys.Wear().Tracked {
		t.Error("wear not tracked despite WithWearTracking")
	}

	// Latencies are fixed when the device opens: what the device charges
	// is what was configured, a zero latency taking the default.
	for _, tc := range []struct {
		read, write         time.Duration
		wantRead, wantWrite time.Duration
		wantLambda          float64
	}{
		{0, 0, 10 * time.Nanosecond, 150 * time.Nanosecond, 15},
		{20 * time.Nanosecond, 100 * time.Nanosecond, 20 * time.Nanosecond, 100 * time.Nanosecond, 5},
		{0, 300 * time.Nanosecond, 10 * time.Nanosecond, 300 * time.Nanosecond, 30},
		{50 * time.Nanosecond, 0, 50 * time.Nanosecond, 150 * time.Nanosecond, 3},
	} {
		dev := newSystem(t, wlpm.WithCapacity(1<<20), wlpm.WithLatencies(tc.read, tc.write)).Device()
		if dev.ReadLatency() != tc.wantRead || dev.WriteLatency() != tc.wantWrite || dev.Lambda() != tc.wantLambda {
			t.Errorf("WithLatencies(%v, %v): device charges %v / %v (λ = %v), want %v / %v (λ = %v)",
				tc.read, tc.write, dev.ReadLatency(), dev.WriteLatency(), dev.Lambda(),
				tc.wantRead, tc.wantWrite, tc.wantLambda)
		}
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := wlpm.New(wlpm.WithCapacity(-1)); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := wlpm.New(wlpm.WithBackend("floppy")); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestEndToEndSortAllAlgorithms(t *testing.T) {
	const n = 2000
	for _, a := range []wlpm.SortAlgorithm{
		wlpm.ExternalMergeSort(), wlpm.SelectionSort(), wlpm.SegmentSort(0.3),
		wlpm.AutoSegmentSort(), wlpm.HybridSort(0.5), wlpm.LazySort(),
	} {
		sys := newSystem(t)
		in, err := sys.Create("in")
		if err != nil {
			t.Fatal(err)
		}
		if err := wlpm.GenerateRecords(n, 1, in.Append); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Create("out")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SortCtx(context.Background(), a, in, out, 10*wlpm.RecordSize*n/100); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if out.Len() != n {
			t.Fatalf("%s: %d records out", a.Name(), out.Len())
		}
		it := out.Scan()
		prev := uint64(0)
		for i := 0; i < n; i++ {
			rec, err := it.Next()
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			k := wlpm.Key(rec)
			if i > 0 && k < prev {
				t.Fatalf("%s: out of order at %d", a.Name(), i)
			}
			prev = k
		}
		it.Close()
	}
}

func TestEndToEndJoinAllAlgorithms(t *testing.T) {
	const nDim, nFact = 500, 5000
	for _, a := range []wlpm.JoinAlgorithm{
		wlpm.NestedLoopsJoin(), wlpm.HashJoin(), wlpm.GraceJoin(),
		wlpm.HybridJoin(0.5, 0.5), wlpm.HybridJoin(1, 0),
		wlpm.SegmentedGraceJoin(0.5), wlpm.LazyHashJoin(),
	} {
		sys := newSystem(t)
		dim, err := sys.Create("dim")
		if err != nil {
			t.Fatal(err)
		}
		fact, err := sys.Create("fact")
		if err != nil {
			t.Fatal(err)
		}
		if err := wlpm.GenerateJoinInputs(nDim, nFact, 1, dim.Append, fact.Append); err != nil {
			t.Fatal(err)
		}
		if err := dim.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fact.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := sys.CreateSized("out", 2*wlpm.RecordSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.JoinCtx(context.Background(), a, dim, fact, out, 5*wlpm.RecordSize*nDim/100); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if out.Len() != nFact {
			t.Fatalf("%s: %d matches, want %d", a.Name(), out.Len(), nFact)
		}
	}
}

func TestCostFacade(t *testing.T) {
	if x := wlpm.OptimalSegmentSortIntensity(100000, 5000, 15); x <= 0 || x >= 1 {
		t.Errorf("optimal x = %v", x)
	}
	x, y := wlpm.HybridJoinSaddle(5e4, 5e5, 3e3, 5)
	if x <= 0 || y <= 0 {
		t.Errorf("saddle (%v, %v)", x, y)
	}
	if tau := wlpm.KendallTau([]float64{1, 2, 3}, []float64{1, 2, 3}); tau != 1 {
		t.Errorf("τ = %v", tau)
	}
	if wlpm.Lambda(10*time.Nanosecond, 150*time.Nanosecond) != 15 {
		t.Error("Lambda broken")
	}
	if wlpm.GraceJoinCost(10, 100, 2) != 440 {
		t.Error("GraceJoinCost broken")
	}
	if wlpm.SegmentSortCost(1, 1000, 100, 15) <= 0 {
		t.Error("SegmentSortCost broken")
	}
	if wlpm.HybridJoinCost(0.5, 0.5, 1000, 10000, 100, 15) <= 0 {
		t.Error("HybridJoinCost broken")
	}
}

func TestExperimentFacade(t *testing.T) {
	want := []string{"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "scaling", "table1", "table2"}
	if ids := wlpm.Experiments(); !slices.Equal(ids, want) {
		t.Fatalf("experiments %v, want %v", ids, want)
	}
	reps, err := wlpm.RunExperiment("table2", wlpm.ExperimentConfig{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || len(reps[0].Rows) == 0 {
		t.Fatal("table2 report malformed")
	}
}

// TestParallelismFacade runs a parallel sort and join end-to-end through
// the façade and checks the output matches the serial system's.
func TestParallelismFacade(t *testing.T) {
	const n = 10_000
	results := make(map[int][]uint64)
	for _, p := range []int{1, 4} {
		sys := newSystem(t, wlpm.WithParallelism(p))
		if sys.Parallelism() != p {
			t.Fatalf("Parallelism() = %d, want %d", sys.Parallelism(), p)
		}
		in, err := sys.Create("in")
		if err != nil {
			t.Fatal(err)
		}
		if err := wlpm.GenerateRecords(n, 3, in.Append); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Create("sorted")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SortCtx(context.Background(), wlpm.SegmentSort(0.4), in, out, 40*1024); err != nil {
			t.Fatalf("P=%d sort: %v", p, err)
		}
		if out.Len() != n {
			t.Fatalf("P=%d: sorted %d records, want %d", p, out.Len(), n)
		}
		var keys []uint64
		it := out.Scan()
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, wlpm.Key(rec))
		}
		it.Close()
		results[p] = keys

		jl, err := sys.Create("jl")
		if err != nil {
			t.Fatal(err)
		}
		jr, err := sys.Create("jr")
		if err != nil {
			t.Fatal(err)
		}
		if err := wlpm.GenerateJoinInputs(1000, 5000, 3, jl.Append, jr.Append); err != nil {
			t.Fatal(err)
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		jout, err := sys.CreateSized("jout", 2*wlpm.RecordSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.JoinCtx(context.Background(), wlpm.GraceJoin(), jl, jr, jout, 16*1024); err != nil {
			t.Fatalf("P=%d join: %v", p, err)
		}
		if jout.Len() != 5000 {
			t.Fatalf("P=%d: %d matches, want 5000", p, jout.Len())
		}
	}
	serial, parallel := results[1], results[4]
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("sorted key %d differs: P=1 %d, P=4 %d", i, serial[i], parallel[i])
		}
	}
}
