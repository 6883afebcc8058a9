package joins

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/storage"
)

// Grace is GJ: classic Grace hash join. Both inputs are partitioned to
// persistent memory in one pass, then each partition pair is joined with
// an in-memory hash table. Cost r(|T|+|V|)(2+λ): the symmetric-I/O
// baseline the write-limited joins are measured against.
//
// Under env.Parallelism > 1 the partitioning scans fan out over input
// chunks and each partition's probe fans out over its probe stream; the
// output order and the cacheline I/O counts match the serial run (see
// parallel.go).
type Grace struct{}

// NewGrace returns the GJ operator.
func NewGrace() *Grace { return &Grace{} }

// Name implements Algorithm.
func (j *Grace) Name() string { return cost.JoinGJ }

// Join implements Algorithm.
func (j *Grace) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	k := partitionCount(env, left.Len(), left.RecordSize())
	ws := newWorkingSet(env, left, right, out)
	if err := gracePhase(env, ws, left, right, k, k, nil); err != nil {
		return err
	}
	return out.Close()
}

// Profile implements Algorithm.
func (j *Grace) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile { return em.GJ(t, v) }

// gracePhase is the one Grace join: hash left and right into the first x
// of k partitions, then build the working set's table over each left
// partition in turn, probe it with its right partition — and with
// suffix, when non-nil (HybJ's unpartitioned rest of the right input) —
// and destroy the pair. GJ materializes all k partitions, SegJ a
// fraction, HybJ all k of a prefix of its inputs. The phase owns its
// partitions: a failure anywhere sweeps every one still live (Destroy is
// idempotent, so reclaimed pairs are safe).
func gracePhase(env *algo.Env, ws *workingSet, left, right storage.Collection, k, x int, suffix storage.Collection) (err error) {
	var lp, rp [][]storage.Collection
	defer func() {
		if err != nil {
			destroyParts(lp)
			destroyParts(rp)
		}
	}()
	if lp, err = partitionInto(env, left, k, x, "gjl"); err != nil {
		return err
	}
	if rp, err = partitionInto(env, right, k, x, "gjr"); err != nil {
		return err
	}
	for p := 0; p < x; p++ {
		if err := buildTableParallel(env, ws, lp[p], nil); err != nil {
			return err
		}
		// One probe worker per sub-collection: the partitioning phase's
		// worker count, itself bounded by env.Parallelism, fixes the
		// probe fan-out.
		if err := parallelProbe(env, ws, rp[p], nil); err != nil {
			return err
		}
		if suffix != nil && suffix.Len() > 0 {
			if err := probeRange(env, ws, suffix, nil); err != nil {
				return err
			}
		}
		if err := destroyAll(lp[p]); err != nil {
			return err
		}
		if err := destroyAll(rp[p]); err != nil {
			return err
		}
	}
	return nil
}

// partitionInto hashes src into the first x of k partitions (x = k keeps
// everything; SegJ materializes only a prefix). The scan fans out over
// env.Parallelism contiguous chunks of src, each worker appending to its
// own sub-collections; partition p is returned as the ordered list of the
// workers' sub-collections, whose concatenation reproduces the serial
// partition contents record-for-record.
//
// Like the serial algorithm's x output partitions, every open
// sub-collection holds one block-sized DRAM tail buffer outside the
// modelled budget M (the paper does not count partition output buffers
// against M either); parallelism multiplies that infrastructure class by
// w, i.e. w·x blocks during the scan.
func partitionInto(env *algo.Env, src storage.Collection, k, x int, prefix string) ([][]storage.Collection, error) {
	w := env.Workers(src.Len())
	var envs []*algo.Env
	if w > 1 {
		envs = env.Split(w)
	} else {
		envs = []*algo.Env{env}
	}
	subs := make([][]storage.Collection, w) // [worker][partition]
	err := env.RunWorkers(w, func(i int) error {
		mine := make([]storage.Collection, x)
		ok := false
		defer func() {
			// Error exit: this worker sweeps its own sub-collections;
			// they are published to subs only once fully closed.
			if !ok {
				destroySubs(mine)
			}
		}()
		for p := range mine {
			c, err := envs[i].CreateTemp(fmt.Sprintf("%s%d", prefix, p), src.RecordSize())
			if err != nil {
				return err
			}
			mine[p] = c
		}
		lo, hi := algo.SplitRange(src.Len(), w, i)
		if err := envs[i].Scan(storage.Slice(src, lo, hi), envs[i].Polled(func(rec []byte) error {
			if p := partitionOf(rec, k); p < x {
				return mine[p].Append(rec)
			}
			return nil
		})); err != nil {
			return err
		}
		if err := closeAll(mine); err != nil {
			return err
		}
		subs[i] = mine
		ok = true
		return nil
	})
	if err != nil {
		// Workers that failed swept their own temps; sweep the ones
		// published by workers that finished before the failure.
		destroyParts(subs)
		return nil, err
	}
	parts := make([][]storage.Collection, x)
	for p := range parts {
		for i := 0; i < w; i++ {
			parts[p] = append(parts[p], subs[i][p])
		}
	}
	return parts, nil
}
