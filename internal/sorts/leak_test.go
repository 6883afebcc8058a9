package sorts

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// Algorithm-level leak discipline (the wlvet/tempsweep contract): a sort
// that fails — cancellation or a device error — must destroy every
// temporary it created before returning. These tests call Sort directly,
// without SortCtx's outer SweepTemps, so the algorithms' own error-path
// sweeps are what is under test.

// TestSortCancelSweepsTemps cancels each cancellation-polling algorithm
// at increasing depths — run formation, mid-run, merging — and asserts
// the algorithm itself left no live temporaries.
func TestSortCancelSweepsTemps(t *testing.T) {
	for _, a := range []Algorithm{NewExternalMergeSort(), NewHybridSort(0.5), NewLazySort()} {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			const n, budget = 6000, 50
			calib := testkit.NewCounting(context.Background())
			env := testkit.Env(t, "blocked", sortDevice, budget).WithContext(calib)
			in := loadInput(t, env, n, 7)
			out, err := env.Factory.Create("out", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Sort(env, in, out); err != nil {
				t.Fatalf("calibration run: %v", err)
			}
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("clean run left %d live temps", live)
			}
			total := calib.Polls()
			if total < 4 {
				t.Fatalf("algorithm polls cancellation only %d times; input too small to steer", total)
			}

			for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
				polls := int64(float64(total) * frac)
				env := testkit.Env(t, "blocked", sortDevice, budget).WithContext(testkit.CancelAfter(context.Background(), polls))
				in := loadInput(t, env, n, 7)
				out, err := env.Factory.Create("out", record.Size)
				if err != nil {
					t.Fatal(err)
				}
				err = a.Sort(env, in, out)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d/%d: err = %v, want context.Canceled", polls, total, err)
				}
				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("cancel at poll %d/%d leaked %d temp collections", polls, total, live)
				}
			}
		})
	}
}

// TestLazySortOutputErrorSweepsTemp forces LaS into its materializing
// iteration (n=1 with T=100, M=60: Eq. 5 materializes immediately) and
// fails the output append while the fresh intermediate input Ti is
// live. The error must surface with zero temps left behind.
func TestLazySortOutputErrorSweepsTemp(t *testing.T) {
	env := testkit.Env(t, "blocked", sortDevice, 60)
	in := loadInput(t, env, 100, 11)
	out, err := env.Factory.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	err = NewLazySort().Sort(env, in, &testkit.FailAfter{Collection: out, N: 10})
	if !errors.Is(err, testkit.ErrInjected) {
		t.Fatalf("err = %v, want injected append failure", err)
	}
	if live := env.LiveTemps(); live != 0 {
		t.Fatalf("failed sort leaked %d temp collections", live)
	}
}

// TestMergePassErrorSweepsMerged steers cancellation into the merge
// phase across a spread of poll depths and parallelism: whichever worker
// holds a freshly created merge output when mergeInto fails must destroy
// it (it is not yet published to the next generation).
func TestMergePassErrorSweepsMerged(t *testing.T) {
	const n, budget = 6000, 20 // tiny budget: many runs, several merge passes
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			calib := testkit.NewCounting(context.Background())
			env := newParEnv(t, budget, par).WithContext(calib)
			in := loadInput(t, env, n, 3)
			out, err := env.Factory.Create("out", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewExternalMergeSort().Sort(env, in, out); err != nil {
				t.Fatal(err)
			}
			total := calib.Polls()
			// Late polls land inside mergeInto, after the pass created its
			// merge output temps.
			for _, frac := range []float64{0.5, 0.7, 0.9, 0.97} {
				polls := int64(float64(total) * frac)
				env := newParEnv(t, budget, par).WithContext(testkit.CancelAfter(context.Background(), polls))
				in := loadInput(t, env, n, 3)
				out, err := env.Factory.Create("out", record.Size)
				if err != nil {
					t.Fatal(err)
				}
				err = NewExternalMergeSort().Sort(env, in, out)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d/%d: err = %v, want context.Canceled", polls, total, err)
				}
				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("cancel at poll %d/%d leaked %d temp collections", polls, total, live)
				}
			}
		})
	}
}

// surfacedOnce holds err to be want, reported once: matched, and named
// once in its text (not joined or wrapped around itself by a second
// report).
func surfacedOnce(t *testing.T, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if n := strings.Count(err.Error(), want.Error()); n != 1 {
		t.Fatalf("err %q reports %q %d times", err, want, n)
	}
}

// TestSortFoldingFailureLeaksNothing: a folding sort that is cancelled at
// any depth, or whose device fails under it — SelS's output, LaS's
// intermediate input Ti while it is being written, SegS's and HybS's runs
// — returns that one error and leaves no temp behind. The input's 990
// groups among 1 000 partials outnumber the 50 slots twenty times over,
// so LaS materializes Ti (at its eighteenth pass) before it is done.
func TestSortFoldingFailureLeaksNothing(t *testing.T) {
	const n, budget = 1000, 50
	keys := arrivals(n, func(i int) uint64 { return uint64(i * 7919 % n % 990) })
	for _, c := range []struct {
		a    Algorithm
		temp string // the temp that fails, "" for the output
	}{
		{NewSelectionSort(), ""},
		{NewLazySort(), "lazyin"},
		{NewSegmentSort(0.5), "run"},
		{NewHybridSort(0.5), "hybrun"},
		{NewExternalMergeSort(), "run"},
	} {
		t.Run(c.a.Name(), func(t *testing.T) {
			fold := func(env *algo.Env, out storage.Collection) error {
				return SortFolding(env, c.a, loadPartials(t, env, keys), out, addPartials)
			}
			calib := testkit.NewCounting(context.Background())
			env := testkit.Env(t, "blocked", sortDevice, budget).WithContext(calib)
			out, _ := env.Factory.Create("out", record.Size)
			if err := fold(env, out); err != nil {
				t.Fatalf("calibration run: %v", err)
			}
			total := calib.Polls()
			for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
				polls := int64(float64(total) * frac)
				env := testkit.Env(t, "blocked", sortDevice, budget).WithContext(testkit.CancelAfter(context.Background(), polls))
				out, _ := env.Factory.Create("out", record.Size)
				surfacedOnce(t, fold(env, out), context.Canceled)
				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("cancel at poll %d/%d leaked %d temps", polls, total, live)
				}
			}

			base := testkit.Env(t, "blocked", sortDevice, budget)
			env = algo.NewEnv(&testkit.FailingTemps{Factory: base.Factory, Prefix: c.temp, N: 10}, base.MemoryBudget)
			out, _ = base.Factory.Create("out", record.Size)
			var dst storage.Collection = out
			if c.temp == "" {
				dst = &testkit.FailAfter{Collection: out, N: 10}
			}
			surfacedOnce(t, fold(env, dst), testkit.ErrInjected)
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("a failed %s append leaked %d temps", c.temp, live)
			}
		})
	}
}

// newParEnv is newEnv with worker parallelism.
func newParEnv(t testing.TB, budgetRecords, par int) *algo.Env {
	t.Helper()
	env := testkit.Env(t, "blocked", sortDevice, budgetRecords)
	return algo.NewParallelEnv(env.Factory, env.MemoryBudget, par)
}
