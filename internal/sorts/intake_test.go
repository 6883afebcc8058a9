package sorts

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/testkit"
)

// drainInto ends the intake the way a consumer that wants its result in a
// collection does: it drains the intake's stream into out, closes the
// stream and then out.
func drainInto(in *Intake, out storage.Collection) error {
	it, err := in.Stream()
	if err != nil {
		return err
	}
	err = algo.ForEach(in.env.Poller(), it, 64, out.Append)
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return out.Close()
}

// pushAll appends every record of src to the intake, the way a producer
// would, and drains the intake into out.
func pushAll(in *Intake, src, out storage.Collection) error {
	recs, err := storage.ReadAll(src)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := in.Append(rec); err != nil {
			in.Discard()
			return err
		}
	}
	return drainInto(in, out)
}

// TestIntakeIsExMSMinusTheInputScan: records pushed into an intake and
// drained from its stream come out as ExMS sorts them when it pulls them
// from a collection — the same bytes and the same cacheline writes, on
// every backend and at every P (a fed run formation and its final merge
// are serial, so they are compared with the serial pull) — for exactly
// one read of the input less.
func TestIntakeIsExMSMinusTheInputScan(t *testing.T) {
	const n, budget = 6000, 400
	for _, backend := range storage.Backends {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p%d", backend, par), func(t *testing.T) {
				f := testkit.Factory(t, backend, pmem.Config{Capacity: sortDevice})
				dev := f.Device()
				env := algo.NewParallelEnv(f, budget*record.Size, par)
				src := loadInput(t, env, n, 5)
				dev.ResetStats()
				recs, err := storage.ReadAll(src) // the producer's business, not the intake's
				if err != nil {
					t.Fatal(err)
				}
				scan := dev.Stats().Reads
				create := func(name string) storage.Collection {
					c, err := f.Create(name, record.Size)
					if err != nil {
						t.Fatal(err)
					}
					return c
				}

				pulled := create("pulled")
				dev.ResetStats()
				// Parallelism 1 for the pull: chunked run formation would
				// change the run boundaries, which is not what is compared.
				if err := NewExternalMergeSort().Sort(algo.NewEnv(f, budget*record.Size), src, pulled); err != nil {
					t.Fatal(err)
				}
				pull := dev.Stats()

				pushed := create("pushed")
				dev.ResetStats()
				in, err := NewIntake(env, record.Size, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					if err := in.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				if in.Len() != n {
					t.Fatalf("intake took %d records, %d appended", in.Len(), n)
				}
				if err := drainInto(in, pushed); err != nil {
					t.Fatal(err)
				}
				push := dev.Stats()

				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("%d live temps after the merge", live)
				}
				a, _ := storage.ReadAll(pulled)
				b, _ := storage.ReadAll(pushed)
				if len(b) != n || !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
					t.Fatalf("pushed output (%d records) differs from ExMS's (%d)", len(b), len(a))
				}
				if push.Writes != pull.Writes {
					t.Errorf("intake wrote %d cachelines, ExMS %d", push.Writes, pull.Writes)
				}
				if push.Reads+scan != pull.Reads {
					t.Errorf("intake read %d cachelines, ExMS %d: want exactly the %d-cacheline input scan less", push.Reads, pull.Reads, scan)
				}
			})
		}
	}
}

// TestIntakeSweepsItsRuns: the intake owns its runs until its stream has
// them. A run temp that fails under the producer's appends, an output
// that fails under the drained stream, a context cancelled at any depth
// of either, and a producer that gives up and discards: no run survives
// any of them.
func TestIntakeSweepsItsRuns(t *testing.T) {
	const n, budget = 6000, 50
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("run-append/p%d", par), func(t *testing.T) {
			base := newParEnv(t, budget, par)
			src := loadInput(t, base, n, 7)
			env := algo.NewParallelEnv(&testkit.FailingTemps{Factory: base.Factory, Prefix: "run", N: 24}, base.MemoryBudget, par)
			out, _ := base.Factory.Create("out", record.Size)
			in, err := NewIntake(env, record.Size, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pushAll(in, src, out); !errors.Is(err, testkit.ErrInjected) {
				t.Fatalf("err = %v, want the injected run failure", err)
			}
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("%d live temps after a failed run append", live)
			}
		})
		t.Run(fmt.Sprintf("output/p%d", par), func(t *testing.T) {
			env := newParEnv(t, budget, par)
			src := loadInput(t, env, n, 7)
			out, _ := env.Factory.Create("out", record.Size)
			in, err := NewIntake(env, record.Size, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pushAll(in, src, &testkit.FailAfter{Collection: out, N: 24}); !errors.Is(err, testkit.ErrInjected) {
				t.Fatalf("err = %v, want the injected output failure", err)
			}
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("%d live temps after a failed merge", live)
			}
		})
		t.Run(fmt.Sprintf("cancel/p%d", par), func(t *testing.T) {
			run := func(ctx context.Context) (*algo.Env, error) {
				env := newParEnv(t, budget, par).WithContext(ctx)
				src := loadInput(t, env, n, 7)
				out, _ := env.Factory.Create("out", record.Size)
				in, err := NewIntake(env, record.Size, nil)
				if err != nil {
					t.Fatal(err)
				}
				return env, pushAll(in, src, out)
			}
			// The intake polls once per append, as its first arrives and
			// then every algo.PollInterval appends: a context that cancels
			// on its second check fails exactly append PollInterval, with
			// runs already written, which Discard sweeps.
			env := newParEnv(t, budget, par).WithContext(testkit.CancelAfter(context.Background(), 1))
			recs, err := storage.ReadAll(loadInput(t, env, n, 7))
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewIntake(env, record.Size, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range recs[:algo.PollInterval] {
				if err := in.Append(rec); i < algo.PollInterval-1 && err != nil || i == algo.PollInterval-1 && !errors.Is(err, context.Canceled) {
					t.Fatalf("append %d: err = %v, want nil before append %d and context.Canceled at it", i+1, err, algo.PollInterval)
				}
			}
			if env.LiveTemps() == 0 {
				t.Fatal("no run written before the cancelled append: nothing to sweep")
			}
			in.Discard()
			if live := env.LiveTemps(); live != 0 {
				t.Fatalf("%d live temps after discarding a cancelled intake", live)
			}

			calib := testkit.NewCounting(context.Background())
			if _, err := run(calib); err != nil {
				t.Fatalf("calibration run: %v", err)
			}
			total := calib.Polls()
			for _, frac := range []float64{0, 0.25, 0.5, 0.85} { // mid-append, then mid-merge
				polls := int64(float64(total) * frac)
				env, err := run(testkit.CancelAfter(context.Background(), polls))
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d/%d: err = %v, want context.Canceled", polls, total, err)
				}
				if live := env.LiveTemps(); live != 0 {
					t.Fatalf("cancel at poll %d/%d leaked %d temp collections", polls, total, live)
				}
			}
		})
	}
	t.Run("discard", func(t *testing.T) {
		env := testkit.Env(t, "blocked", sortDevice, budget)
		in, err := NewIntake(env, record.Size, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := record.Generate(n, 7, in.Append); err != nil {
			t.Fatal(err)
		}
		if env.LiveTemps() == 0 {
			t.Fatal("no run spilled; nothing to discard")
		}
		in.Discard()
		in.Discard()
		if live := env.LiveTemps(); live != 0 {
			t.Fatalf("%d live temps after Discard", live)
		}
	})
}

// TestIntakeRejectsMismatchedOutput: an output of another record size
// refuses the first record drained into it, and closing the refused
// stream still sweeps the runs.
func TestIntakeRejectsMismatchedOutput(t *testing.T) {
	env := testkit.Env(t, "blocked", sortDevice, 50)
	in, err := NewIntake(env, record.Size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.Generate(500, 3, in.Append); err != nil {
		t.Fatal(err)
	}
	narrow, _ := env.Factory.Create("narrow", 16)
	if err := drainInto(in, narrow); err == nil || !strings.Contains(err.Error(), "record size 80, want 16") {
		t.Fatalf("err = %v, want a record size mismatch", err)
	}
	if live := env.LiveTemps(); live != 0 {
		t.Fatalf("%d live temps after a refused merge", live)
	}
	if err := in.Append(make([]byte, 16)); err == nil {
		t.Fatal("a 16-byte record was appended to an 80-byte intake")
	}
}
