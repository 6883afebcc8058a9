package wlpm_test

// One benchmark per paper artifact (every table and figure of the
// evaluation section), plus micro-benchmarks of the operators and the
// ablation benches called out in DESIGN.md. The figure benches run the
// same harness as cmd/wlexp at a reduced scale; `go test -bench .`
// therefore regenerates every experiment end to end.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wlpm"
)

// benchScale keeps `go test -bench .` minutes-fast; raise via wlexp for
// paper-sized runs.
const benchScale = 0.002

func benchConfig() wlpm.ExperimentConfig {
	return wlpm.ExperimentConfig{Scale: benchScale, MemoryPoints: []float64{0.05, 0.10}}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reps, err := wlpm.RunExperiment(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) == 0 {
			b.Fatalf("%s: no reports", id)
		}
	}
}

func BenchmarkFig2HeatmapPanels(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig5SortResponse(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6SortImplementations(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7JoinResponse(b *testing.B)          { runExperiment(b, "fig7") }
func BenchmarkFig8JoinImplementations(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9SortWriteIntensity(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10JoinWriteIntensity(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig11WriteLatency(b *testing.B)         { runExperiment(b, "fig11") }
func BenchmarkFig12CostModelConcordance(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkTable1LazyJoinLedger(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkTable2DeviceProfile(b *testing.B)       { runExperiment(b, "table2") }

// --- Operator micro-benchmarks ---

const (
	microRows    = 20_000
	microDim     = 2_000
	microFact    = 20_000
	microMemFrac = 0.05

	// microCapacity is each micro-benchmark System's device. A device
	// zeroes its whole capacity when it opens, once per iteration here,
	// so it is sized to the data: a 20 000-record input, its output and
	// the sort's runs, or the join's 22 000 inputs, 160-byte output and
	// partitions, on any backend.
	microCapacity = 16 << 20
)

func benchSort(b *testing.B, a wlpm.SortAlgorithm, backend string) {
	b.Helper()
	var totalWrites uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := wlpm.New(wlpm.WithCapacity(microCapacity), wlpm.WithBackend(backend))
		if err != nil {
			b.Fatal(err)
		}
		in, err := sys.Create("in")
		if err != nil {
			b.Fatal(err)
		}
		if err := wlpm.GenerateRecords(microRows, 42, in.Append); err != nil {
			b.Fatal(err)
		}
		if err := in.Close(); err != nil {
			b.Fatal(err)
		}
		out, err := sys.Create("out")
		if err != nil {
			b.Fatal(err)
		}
		sys.ResetStats()
		b.StartTimer()
		if err := sys.SortCtx(context.Background(), a, in, out, int64(microMemFrac*microRows*wlpm.RecordSize)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		totalWrites += sys.Stats().Writes
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalWrites)/float64(b.N), "cl-writes/op")
	b.SetBytes(int64(microRows * wlpm.RecordSize))
}

func BenchmarkSortExMS(b *testing.B)     { benchSort(b, wlpm.ExternalMergeSort(), "blocked") }
func BenchmarkSortSegS20(b *testing.B)   { benchSort(b, wlpm.SegmentSort(0.2), "blocked") }
func BenchmarkSortSegS80(b *testing.B)   { benchSort(b, wlpm.SegmentSort(0.8), "blocked") }
func BenchmarkSortSegSAuto(b *testing.B) { benchSort(b, wlpm.AutoSegmentSort(), "blocked") }
func BenchmarkSortHybS50(b *testing.B)   { benchSort(b, wlpm.HybridSort(0.5), "blocked") }
func BenchmarkSortLaS(b *testing.B)      { benchSort(b, wlpm.LazySort(), "blocked") }

func BenchmarkSortSegS50Blocked(b *testing.B)  { benchSort(b, wlpm.SegmentSort(0.5), "blocked") }
func BenchmarkSortSegS50PMFS(b *testing.B)     { benchSort(b, wlpm.SegmentSort(0.5), "pmfs") }
func BenchmarkSortSegS50RAMDisk(b *testing.B)  { benchSort(b, wlpm.SegmentSort(0.5), "ramdisk") }
func BenchmarkSortSegS50DynArray(b *testing.B) { benchSort(b, wlpm.SegmentSort(0.5), "dynarray") }

func benchJoin(b *testing.B, a wlpm.JoinAlgorithm, backend string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := wlpm.New(wlpm.WithCapacity(microCapacity), wlpm.WithBackend(backend))
		if err != nil {
			b.Fatal(err)
		}
		dim, err := sys.Create("dim")
		if err != nil {
			b.Fatal(err)
		}
		fact, err := sys.Create("fact")
		if err != nil {
			b.Fatal(err)
		}
		if err := wlpm.GenerateJoinInputs(microDim, microFact, 42, dim.Append, fact.Append); err != nil {
			b.Fatal(err)
		}
		if err := dim.Close(); err != nil {
			b.Fatal(err)
		}
		if err := fact.Close(); err != nil {
			b.Fatal(err)
		}
		out, err := sys.CreateSized("out", 2*wlpm.RecordSize)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sys.JoinCtx(context.Background(), a, dim, fact, out, int64(microMemFrac*microDim*wlpm.RecordSize)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64((microDim + microFact) * wlpm.RecordSize))
}

func BenchmarkJoinNLJ(b *testing.B)    { benchJoin(b, wlpm.NestedLoopsJoin(), "blocked") }
func BenchmarkJoinHJ(b *testing.B)     { benchJoin(b, wlpm.HashJoin(), "blocked") }
func BenchmarkJoinGJ(b *testing.B)     { benchJoin(b, wlpm.GraceJoin(), "blocked") }
func BenchmarkJoinLaJ(b *testing.B)    { benchJoin(b, wlpm.LazyHashJoin(), "blocked") }
func BenchmarkJoinSegJ50(b *testing.B) { benchJoin(b, wlpm.SegmentedGraceJoin(0.5), "blocked") }
func BenchmarkJoinHybJ55(b *testing.B) { benchJoin(b, wlpm.HybridJoin(0.5, 0.5), "blocked") }

// --- Ablations (DESIGN.md §7) ---

// Block-size ablation: the paper's §4 setup study (512 B … 8 KiB; they
// settled on 1 KiB after seeing ~10% improvement from 512→1024 and
// little beyond).
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{512, 1024, 2048, 4096, 8192} {
		bs := bs
		b.Run(fmt.Sprintf("%dB", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := wlpm.New(wlpm.WithCapacity(microCapacity), wlpm.WithBlockSize(bs))
				if err != nil {
					b.Fatal(err)
				}
				in, err := sys.Create("in")
				if err != nil {
					b.Fatal(err)
				}
				if err := wlpm.GenerateRecords(microRows, 42, in.Append); err != nil {
					b.Fatal(err)
				}
				if err := in.Close(); err != nil {
					b.Fatal(err)
				}
				out, err := sys.Create("out")
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.SortCtx(context.Background(), wlpm.SegmentSort(0.5), in, out, int64(microMemFrac*microRows*wlpm.RecordSize)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// λ ablation: how the write/read ratio moves the write-limited /
// symmetric crossover (paper Fig. 11 generalized to the whole ratio).
func BenchmarkAblationLambda(b *testing.B) {
	for _, w := range []int{50, 150, 300} {
		w := w
		b.Run(fmt.Sprintf("w%dns", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := wlpm.New(wlpm.WithCapacity(microCapacity),
					wlpm.WithLatencies(10*time.Nanosecond, time.Duration(w)*time.Nanosecond))
				if err != nil {
					b.Fatal(err)
				}
				in, err := sys.Create("in")
				if err != nil {
					b.Fatal(err)
				}
				if err := wlpm.GenerateRecords(microRows, 42, in.Append); err != nil {
					b.Fatal(err)
				}
				if err := in.Close(); err != nil {
					b.Fatal(err)
				}
				out, err := sys.Create("out")
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.SortCtx(context.Background(), wlpm.LazySort(), in, out, int64(microMemFrac*microRows*wlpm.RecordSize)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Energy ablation (paper §4.3): the asymmetry also manifests as power.
// With the PCM literature's ~2/16 pJ-per-bit figures the energy ratio is
// 8 — *smaller* than the default latency λ of 15 — so aggressive
// read-for-write trades (LaS) can cost more energy than they save, while
// moderate intensities (SegS 0.2) still win on writes. This is precisely
// why the write-intensity knob must be re-placed per optimization
// objective, the tunability argument of §4.3. Reported as µJ/op.
func BenchmarkAblationEnergy(b *testing.B) {
	for _, tc := range []struct {
		name string
		algo wlpm.SortAlgorithm
	}{
		{"ExMS", wlpm.ExternalMergeSort()},
		{"SegS20", wlpm.SegmentSort(0.2)},
		{"LaS", wlpm.LazySort()},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				sys, err := wlpm.New(wlpm.WithCapacity(microCapacity))
				if err != nil {
					b.Fatal(err)
				}
				in, err := sys.Create("in")
				if err != nil {
					b.Fatal(err)
				}
				if err := wlpm.GenerateRecords(microRows, 42, in.Append); err != nil {
					b.Fatal(err)
				}
				if err := in.Close(); err != nil {
					b.Fatal(err)
				}
				out, err := sys.Create("out")
				if err != nil {
					b.Fatal(err)
				}
				sys.ResetStats()
				if err := sys.SortCtx(context.Background(), tc.algo, in, out, int64(microMemFrac*microRows*wlpm.RecordSize)); err != nil {
					b.Fatal(err)
				}
				energy += sys.EnergyPJ()
			}
			b.ReportMetric(energy/float64(b.N)/1e6, "µJ/op")
		})
	}
}

// Replacement-selection run-length ablation: ExMS run formation should
// produce ≈2M-record runs on random input (the Eq. 1 assumption).
func BenchmarkAblationRunFormation(b *testing.B) {
	for _, memFrac := range []float64{0.01, 0.05, 0.10} {
		memFrac := memFrac
		b.Run(fmt.Sprintf("mem%.0f%%", memFrac*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := wlpm.New(wlpm.WithCapacity(microCapacity))
				if err != nil {
					b.Fatal(err)
				}
				in, err := sys.Create("in")
				if err != nil {
					b.Fatal(err)
				}
				if err := wlpm.GenerateRecords(microRows, 42, in.Append); err != nil {
					b.Fatal(err)
				}
				if err := in.Close(); err != nil {
					b.Fatal(err)
				}
				out, err := sys.Create("out")
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.SortCtx(context.Background(), wlpm.ExternalMergeSort(), in, out, int64(memFrac*microRows*wlpm.RecordSize)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
