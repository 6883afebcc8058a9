package joins

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/testkit"
)

// Algorithm-level leak discipline (the wlvet/tempsweep contract): a join
// that fails mid-run must destroy every intermediate input and partition
// sub-collection it created before returning. These tests call Join
// directly, without JoinCtx's outer SweepTemps, so the algorithms' own
// error-path sweeps are what is under test.

func newLeakEnv(t testing.TB, budgetRecords, par int) *algo.Env {
	t.Helper()
	return algo.NewParallelEnv(testkit.Factory(t, "blocked", pmem.Config{Capacity: joinDevice}), int64(budgetRecords*record.Size), par)
}

// TestJoinCancelSweepsTemps cancels every join that creates temporaries
// — both users of the iterative hash loop, all three of the Grace phase —
// at increasing depths (partitioning, builds, probes, intermediate-input
// rotation) and asserts the algorithm itself left no live temporaries.
func TestJoinCancelSweepsTemps(t *testing.T) {
	const nLeft, nRight, budget = 600, 6000, 40
	for _, par := range []int{1, 4} {
		for _, a := range []Algorithm{NewHash(), NewLazyHash(), NewGrace(),
			NewSegmentedGrace(0.5), NewSegmentedGrace(1), NewHybridGraceNL(0.5, 0.5)} {
			a, par := a, par
			t.Run(fmt.Sprintf("%s/p%d", a.Name(), par), func(t *testing.T) {
				calib := testkit.NewCounting(context.Background())
				env := newLeakEnv(t, budget, par).WithContext(calib)
				left, right := loadJoinInputs(t, env, nLeft, nRight, 9)
				out, err := env.Factory.Create("out", 2*record.Size)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Join(env, left, right, out); err != nil {
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
					env := newLeakEnv(t, budget, par).WithContext(testkit.CancelAfter(context.Background(), polls))
					left, right := loadJoinInputs(t, env, nLeft, nRight, 9)
					out, err := env.Factory.Create("out", 2*record.Size)
					if err != nil {
						t.Fatal(err)
					}
					err = a.Join(env, left, right, out)
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
}

// TestNestedLoopsCancelOverSmallProbeSide: NLJ re-scans its probe side
// once per build block, and here every scan — each block's build and
// each probe — is shorter than algo.PollInterval. Each scan polls as it
// starts, so a cancelled join stops: on a context cancelled before it
// starts it writes no match, cancelled halfway through a clean run's
// polls it writes fewer than all, and either way leaves no temp.
func TestNestedLoopsCancelOverSmallProbeSide(t *testing.T) {
	const nLeft, nRight, budget = 2000, 200, 30
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			calib := testkit.NewCounting(context.Background())
			env := newLeakEnv(t, budget, par).WithContext(calib)
			left, right := loadJoinInputs(t, env, nLeft, nRight, 13)
			if block := env.BudgetHashRecords(record.Size); block >= algo.PollInterval || nRight >= algo.PollInterval {
				t.Fatalf("scans of %d and %d records reach the poll interval", block, nRight)
			}
			out, err := env.Factory.Create("out", 2*record.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewNestedLoops().Join(env, left, right, out); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if out.Len() != nRight {
				t.Fatalf("clean run: %d matches, want %d", out.Len(), nRight)
			}
			total := calib.Polls()

			for _, polls := range []int64{0, total / 2} {
				env := newLeakEnv(t, budget, par).WithContext(testkit.CancelAfter(context.Background(), polls))
				left, right := loadJoinInputs(t, env, nLeft, nRight, 13)
				out, err := env.Factory.Create("out", 2*record.Size)
				if err != nil {
					t.Fatal(err)
				}
				if err := NewNestedLoops().Join(env, left, right, out); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d/%d: err = %v with %d matches, want context.Canceled", polls, total, err, out.Len())
				}
				if polls == 0 && out.Len() != 0 || out.Len() >= nRight {
					t.Errorf("cancel at poll %d/%d: %d matches written", polls, total, out.Len())
				}
				if live := env.LiveTemps(); live != 0 {
					t.Errorf("cancel at poll %d/%d leaked %d temp collections", polls, total, live)
				}
			}
		})
	}
}
