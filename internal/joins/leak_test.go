package joins

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage/all"
)

// Algorithm-level leak discipline (the wlvet/tempsweep contract): a join
// that fails mid-run must destroy every intermediate input and partition
// sub-collection it created before returning. These tests call Join
// directly, without JoinCtx's outer SweepTemps, so the algorithms' own
// error-path sweeps are what is under test.

// countingCtx counts Err calls without ever cancelling (calibration).
type countingCtx struct {
	context.Context
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	c.calls.Add(1)
	return c.Context.Err()
}

// countdownCtx reports Canceled from the n-th Err call onwards.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

func newLeakEnv(t testing.TB, budgetRecords, par int) *algo.Env {
	t.Helper()
	dev := pmem.MustOpen(pmem.Config{Capacity: 256 << 20})
	f, err := all.New("blocked", dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return algo.NewParallelEnv(f, int64(budgetRecords*record.Size), par)
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
				calib := &countingCtx{Context: context.Background()}
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
				total := calib.calls.Load()
				if total < 4 {
					t.Fatalf("algorithm polls cancellation only %d times; input too small to steer", total)
				}

				for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
					polls := int64(float64(total) * frac)
					env := newLeakEnv(t, budget, par).WithContext(newCountdownCtx(polls))
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
