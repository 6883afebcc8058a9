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
