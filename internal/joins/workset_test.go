package joins

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// TestJoinWorkingSetAllocs: what one Join allocates does not grow with
// the number of its builds and probes. Every catalog join runs on the
// pinned inputs at budget M and at M/4, where k — the partition count,
// and with it GJ's and HybJ's partitions, SegJ's re-scans, NLJ's blocks
// and LaJ's iterations — is four times larger. The working set (one
// table, the build's per-worker vectors, the probe staging) is allocated
// once per join, so the M/4 run may allocate more only by what the extra
// k brings structurally. Per extra unit of k, at parallelism P, that is
// at most 2P partition temps (a Grace partition's left and right
// sub-collection per partitioning worker; LaJ and HJ materialize 2) and
// 4P scan iterators (the build's chunks, which may straddle two
// sub-collections, the probe's chunks and HybJ's suffix probe), with B
// the block size:
//
//   - a temp: its DRAM tail, one block that Append regrows once to two
//     when the first record overflows it, so 3B, plus 1 KiB of structs
//     and names;
//   - an iterator: its fetch buffer B, plus 1 KiB of structs and chunk
//     views;
//   - a chained block: one 8-byte entry in its temp's chain per device
//     block write, which append's growth (at least 1.25× a step) makes
//     at most 40 B.
//
// So
//
//	alloc(M/4) ≤ alloc(M) + Δk·P·(2·(3B + 1 KiB) + 4·(B + 1 KiB)) + 40 B·Δwrites
//
// At P = 1 and B = 1 KiB that is 16 KiB per extra k. A table allocated
// per SegJ re-scan at the unfiltered input's length would cost ~120 KB
// per extra k on these inputs.
func TestJoinWorkingSetAllocs(t *testing.T) {
	const budget = 150
	const kib = 1 << 10
	perK := int64(2*(3*storage.DefaultBlockSize+kib) + 4*(storage.DefaultBlockSize+kib))
	for _, e := range catalog.Entries {
		a := e.New([]float64{0.5, 0.5})
		for _, par := range []int{1, 2, 4} {
			full, quarter := workingSetRun(t, a, budget, par), workingSetRun(t, a, budget/4, par)
			dk, dw := int64(quarter.k-full.k), int64(quarter.writes)-int64(full.writes)
			allowance := dk*int64(par)*perK + 40*max(dw, 0)
			if grown := int64(quarter.bytes) - int64(full.bytes); grown > allowance {
				t.Errorf("%s P=%d: %d B per join at M (k=%d), %d B at M/4 (k=%d): grew %d B, allowance %d B",
					a.Name(), par, full.bytes, full.k, quarter.bytes, quarter.k, grown, allowance)
			}
		}
	}
}

// workingSetAllocs is one cell of TestJoinWorkingSetAllocs: the median
// bytes allocated per Join over three runs, the partition count, and
// the device's block writes (the same every run).
type workingSetAllocs struct {
	bytes, writes uint64
	k             int
}

func workingSetRun(t *testing.T, a Algorithm, budget, par int) workingSetAllocs {
	t.Helper()
	const nLeft, nRight = 2000, 10000
	var r workingSetAllocs
	var runs []uint64
	for range 3 {
		env := testkit.Env(t, "blocked", joinDevice, budget)
		env.Parallelism = par
		left, right := loadJoinInputs(t, env, nLeft, nRight, 11)
		out, err := env.Factory.Create("out", 2*record.Size)
		if err != nil {
			t.Fatal(err)
		}
		dev := env.Factory.Device()
		dev.ResetStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := a.Join(env, left, right, out); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		runtime.ReadMemStats(&after)
		runs = append(runs, after.TotalAlloc-before.TotalAlloc)
		r.writes = dev.Stats().WriteOps
		r.k = partitionCount(env, nLeft, record.Size)
	}
	slices.Sort(runs)
	r.bytes = runs[1]
	return r
}

// BenchmarkJoinCycle runs the join_kernels cycle — GJ, SegJ(0.5), LaJ
// over one pair of inputs at P = 2 — at micro scale (2 000 ⋈ 20 000,
// M = 5 % of the left input), reporting what a cycle allocates.
func BenchmarkJoinCycle(b *testing.B) {
	const nLeft, nRight = 2000, 20000
	env := testkit.Env(b, "blocked", largeJoinDevice, nLeft/20)
	env.Parallelism = 2
	left, right := loadJoinInputs(b, env, nLeft, nRight, 42)
	cycle := []Algorithm{NewGrace(), NewSegmentedGrace(0.5), NewLazyHash()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range cycle {
			out, err := env.Factory.Create(fmt.Sprintf("out%d", j), 2*record.Size)
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Join(env, left, right, out); err != nil {
				b.Fatalf("%s: %v", a.Name(), err)
			}
			if out.Len() != nRight {
				b.Fatalf("%s: %d matches, want %d", a.Name(), out.Len(), nRight)
			}
			if err := out.Destroy(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
