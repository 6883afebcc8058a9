package sorts

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// Kernel-level tests of the keyed-slab selection pass, run formation and
// the k-way merge: order properties against a sort.Slice reference,
// cancellation landing mid-chunk, and the allocation budgets that keep
// the inner loops free of per-record allocation.

// dupInput loads n records whose keys collide (n/4 distinct) and whose
// payloads come from a two-value domain, so the input holds duplicate
// keys and byte-identical records.
func dupInput(t testing.TB, env *algo.Env, n int, seed int64) (storage.Collection, [][]byte) {
	t.Helper()
	in, err := env.Factory.Create(fmt.Sprintf("dup-%d-%d", n, seed), record.Size)
	if err != nil {
		t.Fatal(err)
	}
	rng := testkit.NewRNG(uint64(seed)*2654435761 + 1)
	recs := make([][]byte, n)
	for i := range recs {
		rec := make([]byte, record.Size)
		record.SetKey(rec, rng.Next()%uint64(n/4+1))
		record.SetAttr(rec, 5, rng.Next()%2)
		recs[i] = rec
		if err := in.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return in, recs
}

// selectionOrder returns the input positions in the selection order:
// key, then bytes, then position.
func selectionOrder(recs [][]byte) []int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := recs[order[a]], recs[order[b]]
		if ka, kb := record.Key(ra), record.Key(rb); ka != kb {
			return ka < kb
		}
		if c := bytes.Compare(ra, rb); c != 0 {
			return c < 0
		}
		return order[a] < order[b]
	})
	return order
}

func sortedCopies(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	sort.Strings(out)
	return out
}

// TestSelectionPassOrder drives repeated passes of one selector against
// the reference order: every pass returns exactly the next budget
// records after the bound, hands every other unemitted record to
// onSurvivor exactly once, and the passes partition the input.
func TestSelectionPassOrder(t *testing.T) {
	const n = 157 // not a multiple of the 12-record block chunk
	for _, budget := range []int{1, 2, n - 1, n, n + 1} {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			env := testkit.Env(t, "blocked", sortDevice, budget)
			in, recs := dupInput(t, env, n, int64(budget))
			order := selectionOrder(recs)
			sel := newSelector(env, record.Size, budget, nil)
			done := 0 // records emitted by earlier passes = the bound's rank
			for pass := 0; done < n; pass++ {
				var survivors [][]byte
				got, err := sel.pass(in, func(rec []byte) error {
					survivors = append(survivors, append([]byte(nil), rec...))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := order[done:min(done+budget, n)]
				if got != len(want) {
					t.Fatalf("pass %d (bounded=%v): selected %d records, want %d", pass, pass > 0, got, len(want))
				}
				for i, p := range want {
					if !bytes.Equal(sel.rec(i), recs[p]) {
						t.Fatalf("pass %d: batch[%d] = key %d, want input position %d (key %d)",
							pass, i, record.Key(sel.rec(i)), p, record.Key(recs[p]))
					}
				}
				var rest [][]byte
				for _, p := range order[done+got:] {
					rest = append(rest, recs[p])
				}
				if g, w := sortedCopies(survivors), sortedCopies(rest); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("pass %d: onSurvivor saw %d records, want the %d unemitted ones exactly once", pass, len(g), len(w))
				}
				done += got
			}
			if got, err := sel.pass(in, nil); err != nil || got != 0 {
				t.Fatalf("pass past the end selected %d records (err %v), want 0", got, err)
			}
			sel.restart()
			if got, _ := sel.pass(in, nil); got != min(budget, n) {
				t.Fatalf("pass after restart selected %d records, want %d", got, min(budget, n))
			}
		})
	}
}

// TestSelectionPassHandOnOrder pins the sequence a pass hands to
// onSurvivor, record for record, to an O(n·M) reference selection: the
// arriving record when it does not precede the batch's maximum, else that
// maximum as it is displaced. LaS writes its next input in this order and
// HybS forms its runs from it, so it must not depend on how the batch's
// maximum is found.
func TestSelectionPassHandOnOrder(t *testing.T) {
	const n = 157
	for _, budget := range []int{1, 2, 7, 40, n - 1, n + 1} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			env := testkit.Env(t, "blocked", sortDevice, budget)
			in, recs := dupInput(t, env, n, int64(budget)+100)
			before := func(a, b int) bool { // selection order of input positions
				ra, rb := recs[a], recs[b]
				if ka, kb := record.Key(ra), record.Key(rb); ka != kb {
					return ka < kb
				}
				if c := bytes.Compare(ra, rb); c != 0 {
					return c < 0
				}
				return a < b
			}
			sel := newSelector(env, record.Size, budget, nil)
			bound := -1 // the last position emitted, in selection order
			for pass := 0; ; pass++ {
				var want [][]byte
				var batch []int
				for p := range recs {
					if bound >= 0 && !before(bound, p) {
						continue
					}
					if len(batch) < budget {
						batch = append(batch, p)
						continue
					}
					top := 0
					for i := range batch {
						if before(batch[top], batch[i]) {
							top = i
						}
					}
					if !before(p, batch[top]) {
						want = append(want, recs[p])
						continue
					}
					want = append(want, recs[batch[top]])
					batch[top] = p
				}
				var got [][]byte
				selected, err := sel.pass(in, func(rec []byte) error {
					got = append(got, append([]byte(nil), rec...))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if selected != len(batch) {
					t.Fatalf("pass %d selected %d records, want %d", pass, selected, len(batch))
				}
				if len(got) != len(want) {
					t.Fatalf("pass %d handed on %d records, want %d", pass, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("pass %d: hand-on #%d is key %d, want key %d", pass, i, record.Key(got[i]), record.Key(want[i]))
					}
				}
				if len(batch) == 0 {
					return
				}
				bound = batch[0]
				for _, p := range batch[1:] {
					if before(bound, p) {
						bound = p
					}
				}
			}
		})
	}
}

// canceledCtx is cancelled from the start: a loop's poll trips on its
// first tick, before any record passes.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSelectionPassCancelMidChunk(t *testing.T) {
	const n, budget = 1000, 10
	env := testkit.Env(t, "blocked", sortDevice, budget)
	in := loadInput(t, env, n, 3)
	chunk := env.ChunkRecords(record.Size)
	// pass runs a selection pass on ctx and reports how many records it
	// handed on; the pass must fail with context.Canceled, its batch empty.
	pass := func(ctx context.Context) int {
		env.WithContext(ctx)
		sel := newSelector(env, record.Size, budget, nil)
		survivors := 0
		got, err := sel.pass(in, func([]byte) error { survivors++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pass on a cancelled context: err = %v, want context.Canceled", err)
		}
		if got != 0 || sel.heap.Len() != 0 {
			t.Errorf("cancelled pass left a batch of %d (heap %d)", got, sel.heap.Len())
		}
		return survivors
	}
	// The scan checks as its first chunk arrives: a context cancelled
	// before the pass lets no record through.
	if survivors := pass(canceledCtx()); survivors != 0 {
		t.Errorf("pass cancelled before it started handed on %d records, want 0", survivors)
	}
	// It checks again as a chunk arrives that brings the records read to
	// the interval, before taking any of it: every record of the chunks
	// before was either admitted or handed on, none of that chunk.
	survivors := pass(testkit.CancelAfter(context.Background(), 1))
	read := 0
	it := in.Scan()
	defer it.Close()
	ci := storage.Chunked(it)
	for {
		recs, err := ci.NextChunk(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if read+len(recs) >= algo.PollInterval {
			break
		}
		read += len(recs)
	}
	if want := read - budget; survivors != want {
		t.Errorf("onSurvivor saw %d records, want exactly %d (scan must stop at the poll, before the chunk that trips it)", survivors, want)
	}
}

func TestSelectionStreamCancelMidPass(t *testing.T) {
	const n, budget = 2000, 300
	env := testkit.Env(t, "blocked", sortDevice, budget)
	in := loadInput(t, env, n, 5)
	// Count one pass's consultations of the context on a clean pass, then
	// cancel on the second consultation of the second pass.
	counting := testkit.NewCounting(context.Background())
	env.WithContext(counting)
	if _, err := newSelector(env, record.Size, budget, nil).pass(in, nil); err != nil {
		t.Fatal(err)
	}
	env.WithContext(testkit.CancelAfter(context.Background(), counting.Polls()+1))
	s := newSelectionStream(env, in, budget, nil)
	for i := 0; i < budget; i++ {
		rec, err := s.Next()
		if err != nil {
			t.Fatalf("first batch, record %d: %v", i, err)
		}
		if record.Key(rec) != uint64(i) {
			t.Fatalf("first batch, record %d has key %d", i, record.Key(rec))
		}
	}
	for i := 0; i < 3; i++ {
		if rec, err := s.Next(); !errors.Is(err, context.Canceled) || rec != nil {
			t.Fatalf("Next #%d after cancellation = (%v, %v), want (nil, context.Canceled)", i, rec, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v, want io.EOF", err)
	}
}

// hugeCollection reports more records than a 32-bit position can name.
type hugeCollection struct{ storage.Collection }

func (hugeCollection) Name() string    { return "huge" }
func (hugeCollection) RecordSize() int { return record.Size }
func (hugeCollection) Len() int {
	n := uint64(math.MaxUint32) + 1
	return int(n)
}

// TestSelectionRejectsOversizedInput: heap entries carry 32-bit input
// positions, so a selection over more records must fail, not wrap.
func TestSelectionRejectsOversizedInput(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed the 32-bit position space")
	}
	for _, a := range []Algorithm{NewSelectionSort(), NewSegmentSort(0), NewLazySort()} {
		env := testkit.Env(t, "blocked", sortDevice, 100)
		out, err := env.CreateTemp("out", record.Size)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Sort(env, hugeCollection{}, out); err == nil {
			t.Errorf("%s over 2^32 records succeeded", a.Name())
		} else if want := "32-bit position space"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention the %s", a.Name(), err, want)
		}
		if err := env.SweepTemps(); err != nil {
			t.Fatal(err)
		}
	}
}

// The allocation budgets (60k × 80 B, M = 5 %): what a kernel allocates
// is per phase — iterators, the slab's doublings, run bookkeeping —
// never per record.
const (
	kernelRecords = 60_000
	kernelBudget  = kernelRecords / 20
)

func TestSelectionPassAllocs(t *testing.T) {
	env := testkit.Env(t, "blocked", kernelDevice, kernelBudget)
	in := loadInput(t, env, kernelRecords, 9)
	allocs := testing.AllocsPerRun(3, func() {
		sel := newSelector(env, record.Size, kernelBudget, nil)
		for pass := 0; pass < 2; pass++ {
			if got, err := sel.pass(in, nil); err != nil || got != kernelBudget {
				t.Fatalf("pass = (%d, %v)", got, err)
			}
		}
	})
	if perRec := allocs / (2 * kernelRecords); perRec >= 0.01 {
		t.Fatalf("%.0f allocations for two %d-record passes: %.4f per record scanned, want 0", allocs, kernelRecords, perRec)
	}
	t.Logf("%.0f allocations per two %d-record selection passes", allocs, kernelRecords)
}

// TestTopNSelectionAllocs: a selection bounded at n records (SortTop)
// sizes its tree at n, not at the share: at n = 100 under a 400 000 B
// share (5 000 slots) over 10 000 records it carves one slab segment of
// 100 slots, so its bytes stay within one full segment and its
// bookkeeping, while the same first pass unbounded carves all 5 000.
// The count of allocations stays per pass, never per record.
func TestTopNSelectionAllocs(t *testing.T) {
	const rows, share, n = 10_000, 400_000, 100
	env := testkit.Env(t, "blocked", kernelDevice, share/record.Size)
	in := loadInput(t, env, rows, 9)
	// run sorts in's first limit records into a fresh output and returns
	// the bytes and allocations it took.
	run := func(limit int) (bytes uint64, allocs float64) {
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs-1, func() { // AllocsPerRun runs it once more to warm up
			out, err := env.CreateTemp("out", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := SortTop(env, NewSelectionSort(), in, out, nil, limit); err != nil {
				t.Fatal(err)
			}
			if out.Len() != min(limit, rows) {
				t.Fatalf("SortTop(%d) wrote %d records", limit, out.Len())
			}
			if err := out.Destroy(); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, allocs
	}
	bounded, allocs := run(n)
	whole, _ := run(share / record.Size)            // one pass over a full tree
	segment := uint64(256 * (record.Size + 4 + 16)) // xheap's segment: slots, tie-breaks, tree nodes
	t.Logf("bounded at %d: %d B and %.0f allocations per sort; one full-tree pass: %d B", n, bounded, allocs, whole)
	if bounded > segment {
		t.Errorf("a selection bounded at %d records allocated %d B per sort, over one %d B slab segment with its bookkeeping (a full tree: %d B)", n, bounded, segment, whole)
	}
	if perRec := allocs / rows; perRec >= 0.01 {
		t.Errorf("%.0f allocations for a %d-record pass: %.4f per record scanned, want 0", allocs, rows, perRec)
	}
}

// formedRuns forms the runs of a kernel-sized input once.
func formedRuns(t testing.TB, env *algo.Env) []storage.Collection {
	t.Helper()
	in := loadInput(t, env, kernelRecords, 9)
	runs, err := formRunsReplacementSelection(env, in, kernelBudget, sampling(env, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func mergeDiscarding(t testing.TB, env *algo.Env, runs []storage.Collection) {
	iters := make([]storage.Iterator, len(runs))
	for i, r := range runs {
		iters[i] = r.Scan()
	}
	merged, last := 0, uint64(0)
	err := mergeIters(env, iters, record.Size, func(rec []byte) error {
		k := record.Key(rec)
		if k < last {
			return fmt.Errorf("merge emitted key %d after %d", k, last)
		}
		last = k
		merged++
		return nil
	}, nil)
	if err != nil || merged != kernelRecords {
		t.Fatalf("merge emitted %d of %d records: %v", merged, kernelRecords, err)
	}
}

func TestMergeItersAllocs(t *testing.T) {
	env := testkit.Env(t, "blocked", kernelDevice, kernelBudget)
	runs := formedRuns(t, env)
	allocs := testing.AllocsPerRun(3, func() { mergeDiscarding(t, env, runs) })
	if perRec := allocs / kernelRecords; perRec >= 0.01 {
		t.Fatalf("%.0f allocations merging %d records from %d runs: %.4f per record, want 0", allocs, kernelRecords, len(runs), perRec)
	}
	t.Logf("%.0f allocations per %d-run, %d-record merge", allocs, len(runs), kernelRecords)
}

func BenchmarkSelectionPass(b *testing.B) {
	env := testkit.Env(b, "blocked", kernelDevice, kernelBudget)
	in := loadInput(b, env, kernelRecords, 9)
	sel := newSelector(env, record.Size, kernelBudget, nil)
	b.ReportAllocs()
	b.SetBytes(kernelRecords * record.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.restart()
		if _, err := sel.pass(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormRuns(b *testing.B) {
	env := testkit.Env(b, "blocked", kernelDevice, kernelBudget)
	in := loadInput(b, env, kernelRecords, 9)
	b.ReportAllocs()
	b.SetBytes(kernelRecords * record.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := formRunsReplacementSelection(env, in, kernelBudget, sampling(env, false), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, r := range runs {
			if err := r.Destroy(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

func BenchmarkMergeIters(b *testing.B) {
	env := testkit.Env(b, "blocked", kernelDevice, kernelBudget)
	runs := formedRuns(b, env)
	b.ReportAllocs()
	b.SetBytes(kernelRecords * record.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeDiscarding(b, env, runs)
	}
}

// TestFormRunsAllocBudget: at P = 1 nothing reads a run's key sidecar
// (parallelFinalMerge needs two workers), so run formation must not
// build one — 8 bytes per spilled record, doubled on every growth, used
// to be the largest allocation of a serial sort. What remains is per
// phase: the slab's segments, the deferred-entry list, the runs'
// bookkeeping. A parent environment at P ≥ 2 still samples, whatever the
// parallelism of the child that forms the run.
func TestFormRunsAllocBudget(t *testing.T) {
	env := testkit.Env(t, "blocked", kernelDevice, kernelBudget)
	in := loadInput(t, env, kernelRecords, 9)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs, err := formRuns(env, in, record.Size, sampling(env, false), nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if _, sampled := r.(*sampledRun); sampled {
			t.Fatalf("run %q carries a key sidecar at P = 1", r.Name())
		}
	}
	// The slab (M = 240 KB), its entries, the deferred list and the
	// store's block bookkeeping come to ~0.6–0.9 MB; with the sidecars'
	// doubling growth on top the same call allocated 2.5 MB.
	if got, budget := m1.TotalAlloc-m0.TotalAlloc, uint64(5*kernelBudget*record.Size); got > budget {
		t.Errorf("run formation over %d records allocated %d B at P = 1, budget %d B", kernelRecords, got, budget)
	}
	destroyRuns(runs)

	par := algo.NewParallelEnv(env.Factory, env.MemoryBudget, 2)
	runs, err = formRuns(par, in, record.Size, sampling(par, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if _, sampled := r.(*sampledRun); !sampled {
			t.Fatalf("run %q formed for a P = 2 final merge has no key sidecar", r.Name())
		}
	}
	destroyRuns(runs)
}

// passCounter counts the intermediate merge passes a mergeRuns makes: the
// records of key 0, which sit in the first run and so in the first group
// of every pass, appended to a merge temp.
type passCounter struct {
	storage.Factory
	passes *int
}

func (f passCounter) Create(name string, recSize int) (storage.Collection, error) {
	c, err := f.Factory.Create(name, recSize)
	if err != nil || !strings.Contains(name, ".merge.") {
		return c, err
	}
	return &keyZeroCounter{Collection: c, n: f.passes}, nil
}

type keyZeroCounter struct {
	storage.Collection
	n *int
}

func (c *keyZeroCounter) Append(rec []byte) error {
	if record.Key(rec) == 0 {
		*c.n++
	}
	return c.Collection.Append(rec)
}

// TestCostModelCountsMergePasses: the sort profiles' extra merge passes
// are mergeRuns' — fan-in m − 1 runs at m buffers, m − 2 beside segment
// sort's selection stream, never below two — for run counts on either
// side of one and two passes.
func TestCostModelCountsMergePasses(t *testing.T) {
	fac := testkit.Env(t, "blocked", sortDevice, 1).Factory
	bs := fac.BlockSize()
	for _, m := range []int{2, 3, 4, 9} {
		for _, streamed := range []bool{false, true} {
			fanIn := max(2, m-1)
			if streamed {
				fanIn = max(2, m-2)
			}
			for _, runs := range []int{fanIn - 1, fanIn, fanIn + 1, fanIn * fanIn, fanIn*fanIn + 1} {
				if runs < 1 {
					continue
				}
				measured := 0
				env := algo.NewEnv(passCounter{Factory: fac, passes: &measured}, int64(m*bs))
				// Run i holds keys i and runs + i, so every run reaches the
				// final merge and key 0 opens the first.
				rs := make([]storage.Collection, runs)
				for i := range rs {
					r, err := env.CreateTemp("run", record.Size)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{i, runs + i} {
						if err := r.Append(record.New(uint64(k))); err != nil {
							t.Fatal(err)
						}
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					rs[i] = r
				}
				var streams []storage.Iterator
				if streamed {
					seg, err := env.CreateTemp("seg", record.Size)
					if err != nil {
						t.Fatal(err)
					}
					if err := seg.Append(record.New(uint64(2 * runs))); err != nil {
						t.Fatal(err)
					}
					if err := seg.Close(); err != nil {
						t.Fatal(err)
					}
					streams = append(streams, seg.Scan())
				}
				out, err := env.CreateTemp("out", record.Size)
				if err != nil {
					t.Fatal(err)
				}
				if err := mergeRuns(env, rs, streams, out, record.Size, nil); err != nil {
					t.Fatal(err)
				}
				if err := env.SweepTemps(); err != nil {
					t.Fatal(err)
				}
				// The profile whose runs number exactly runs: t/(2m) for ExMS,
				// x·t/(2m) of SegS's run segment beside its stream.
				mm := float64(m)
				tt := 2 * mm * float64(runs)
				predicted := NewExternalMergeSort().Profile(cost.Emit{}, tt, mm, 15).Writes/tt - 2
				if streamed {
					const x = 0.5
					tt /= x
					predicted = (NewSegmentSort(x).Profile(cost.Emit{}, tt, mm, 15).Writes-tt)/(x*tt) - 1
				}
				if math.Abs(predicted-float64(measured)) > 1e-9 {
					t.Errorf("m=%d streamed=%v %d runs: the profile predicts %.0f extra merge passes, mergeRuns made %d", m, streamed, runs, predicted, measured)
				}
			}
		}
	}
}
