package wlpm_test

import (
	"context"
	"io"
	"testing"

	"wlpm"
)

// A full query pipeline across modules and backends: generate → sort the
// dimension (write-limited) → join with the fact input (lazy) → group the
// result by key (write-limited aggregation). Every stage runs on the same
// simulated device, so the test also asserts the end-to-end write budget
// stays below the symmetric-I/O pipeline's.
func TestQueryPipelineAcrossBackends(t *testing.T) {
	const (
		nDim  = 800
		nFact = 8000
	)
	for _, backend := range wlpm.Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			pipeline := func(sortAlg wlpm.SortAlgorithm, joinAlg wlpm.JoinAlgorithm) (uint64, int) {
				sys, err := wlpm.New(wlpm.WithCapacity(32<<20), wlpm.WithBackend(backend))
				if err != nil {
					t.Fatal(err)
				}
				dim, err := sys.Create("dim")
				if err != nil {
					t.Fatal(err)
				}
				fact, err := sys.Create("fact")
				if err != nil {
					t.Fatal(err)
				}
				if err := wlpm.GenerateJoinInputs(nDim, nFact, 7, dim.Append, fact.Append); err != nil {
					t.Fatal(err)
				}
				if err := dim.Close(); err != nil {
					t.Fatal(err)
				}
				if err := fact.Close(); err != nil {
					t.Fatal(err)
				}

				budget := int64(nDim * wlpm.RecordSize / 10)
				sys.ResetStats()

				sortedDim, err := sys.Create("dim.sorted")
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.SortCtx(context.Background(), sortAlg, dim, sortedDim, budget); err != nil {
					t.Fatal(err)
				}

				joined, err := sys.Create("joined") // projected 80 B results
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.JoinCtx(context.Background(), joinAlg, sortedDim, fact, joined, budget); err != nil {
					t.Fatal(err)
				}

				rollup, err := sys.Create("rollup")
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.GroupByCtx(context.Background(), sortAlg, joined, 1, rollup, budget); err != nil {
					t.Fatal(err)
				}

				// Correctness: every dimension key appears with the join
				// fan-out as its count.
				if rollup.Len() != nDim {
					t.Fatalf("%d groups, want %d", rollup.Len(), nDim)
				}
				it := rollup.Scan()
				defer it.Close()
				for {
					rec, err := it.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := wlpm.Attr(rec, wlpm.GroupAttrCount); got != nFact/nDim {
						t.Fatalf("group %d count %d, want %d", wlpm.Attr(rec, wlpm.GroupAttrKey), got, nFact/nDim)
					}
				}
				return sys.Stats().Writes, rollup.Len()
			}

			wlWrites, _ := pipeline(wlpm.SegmentSort(0.2), wlpm.LazyHashJoin())
			symWrites, _ := pipeline(wlpm.ExternalMergeSort(), wlpm.HashJoin())
			if wlWrites >= symWrites {
				t.Errorf("write-limited pipeline wrote %d lines, symmetric %d — no end-to-end savings", wlWrites, symWrites)
			}
		})
	}
}
