package sorts

import (
	"sort"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// FinalMergePhase names the last merge pass — runs (plus any streaming
// sources) into the output collection — in the environment's phase
// recorder. It is the phase parallelFinalMerge lifts at P > 1.
const FinalMergePhase = "final-merge"

// minParallelMergeRecords is the per-worker record floor below which the
// final merge stays serial: splitting tiny merges buys no overlap but
// still pays the splitter selection and per-worker iterator buffers.
const minParallelMergeRecords = 2048

// sampledRun decorates a run collection with a DRAM key sidecar: the key
// of every appended record, in append (= sorted) order. The sidecar is
// what lets the final merge split the key domain without touching the
// device: splitter candidates are quantiles of the pooled sidecars, and
// a splitter's exact boundary within a run is a binary search. Like the
// block-offset chains of the blocked store, the sidecar is
// thin-persistence-layer metadata held in DRAM outside the modelled
// budget M (8 bytes per spilled record, and only while the run lives).
type sampledRun struct {
	storage.Collection
	keys []uint64
}

// sampleRun wraps a freshly created run collection.
func sampleRun(c storage.Collection) storage.Collection {
	return &sampledRun{Collection: c}
}

func (r *sampledRun) Append(rec []byte) error {
	r.keys = append(r.keys, record.Key(rec))
	return r.Collection.Append(rec)
}

// parallelFinalMerge merges runs into out with an order-preserving
// key-domain split: pooled run samples yield up to P−1 splitter keys,
// each worker k-way merges its key range from every run, and the ranges
// concatenate in splitter order through a storage range-append session.
// Equal keys never straddle a splitter (range i is keys in [Kᵢ₋₁, Kᵢ),
// and ties beyond the key are resolved identically by every worker's
// merge comparator), so the concatenation is exactly the serial merge's
// output, and the session's reserved-block discipline keeps cacheline
// writes identical to serial appends. The only read overhead is the
// block straddling each (run, splitter) boundary, fetched by both
// adjacent workers; the worker count is capped so that overhead stays
// ≤10% of the merge's read volume.
//
// Per-worker scan buffers (one block per run per worker) are
// infrastructure-class DRAM outside the modelled budget, like the
// per-worker tail buffers of parallel partitioning.
//
// It reports handled=false — leaving runs untouched — when the phase
// must stay serial: P < 2, too few records, unsampled runs, or a
// backend without block reservation. When handled, runs are destroyed
// (success) or swept (error) exactly as the serial path would.
func parallelFinalMerge(env *algo.Env, runs []storage.Collection, out storage.Collection, recSize int) (handled bool, err error) {
	if len(runs) == 0 {
		return false, nil
	}
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	w := env.Workers(total / minParallelMergeRecords)
	// Boundary-straddle cap: each extra range re-reads ≤1 block per run,
	// so (w−1)·runs blocks must stay within 10% of the merge's
	// total·recSize bytes of run reads.
	bs := env.Factory.BlockSize()
	if maxW := 1 + total*recSize/(10*len(runs)*bs); w > maxW {
		w = maxW
	}
	if w < 2 {
		return false, nil
	}
	appender, ok := storage.AsRangeAppender(out)
	if !ok {
		return false, nil
	}
	sampled := make([]*sampledRun, len(runs))
	for i, r := range runs {
		sr, ok := r.(*sampledRun)
		if !ok {
			return false, nil
		}
		sampled[i] = sr
	}
	splitters := chooseSplitters(sampled, w)
	if len(splitters) == 0 {
		return false, nil // key domain too narrow to split
	}
	nRanges := len(splitters) + 1

	// cuts[i][r] is the first record index of run r belonging to range i;
	// range i of run r is [cuts[i][r], cuts[i+1][r]). Pure DRAM binary
	// searches over the key sidecars — no device reads.
	cuts := make([][]int, nRanges+1)
	cuts[0] = make([]int, len(runs))
	cuts[nRanges] = make([]int, len(runs))
	for r, run := range runs {
		cuts[nRanges][r] = run.Len()
	}
	for si, key := range splitters {
		row := make([]int, len(runs))
		for r, sr := range sampled {
			ks := sr.keys
			row[r] = sort.Search(len(ks), func(i int) bool { return ks[i] >= key })
		}
		cuts[si+1] = row
	}
	counts := make([]int, nRanges)
	for i := 0; i < nRanges; i++ {
		for r := range runs {
			counts[i] += cuts[i+1][r] - cuts[i][r]
		}
	}

	session, err := appender.AppendRanges(counts)
	if err != nil {
		destroyRuns(runs)
		return true, err
	}
	err = env.RunWorkers(nRanges, func(i int) error {
		iters := make([]storage.Iterator, 0, len(runs))
		for r, run := range runs {
			lo, hi := cuts[i][r], cuts[i+1][r]
			if lo < hi {
				iters = append(iters, storage.Slice(run, lo, hi).Scan())
			}
		}
		return mergeIters(env, iters, recSize, session.Writer(i).Append, nil)
	})
	if err == nil {
		err = session.Commit()
	}
	if err != nil {
		session.Rollback() //nolint:errcheck // best-effort unwind after failure
		destroyRuns(runs)
		return true, err
	}
	for _, r := range runs {
		if err := r.Destroy(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// splitterSamplesPerRange bounds the splitter-selection work: the pooled
// candidate set holds about this many keys per output range, regardless
// of run sizes. Each sidecar is already sorted (append order is run
// order), so evenly spaced per-run samples are themselves quantile
// estimates; a denser pool would only refine range balance, never
// correctness — every strictly increasing splitter set yields the same
// concatenated output.
const splitterSamplesPerRange = 32

// chooseSplitters samples every run's key sidecar proportionally and
// picks up to w−1 strictly increasing quantile keys from the pooled
// sample. Fewer splitters (down to zero, when the key domain is a single
// value) simply mean fewer ranges.
func chooseSplitters(runs []*sampledRun, w int) []uint64 {
	n := 0
	for _, r := range runs {
		n += len(r.keys)
	}
	if n == 0 {
		return nil
	}
	target := splitterSamplesPerRange * w
	pool := make([]uint64, 0, target+len(runs))
	for _, r := range runs {
		if len(r.keys) == 0 {
			continue
		}
		quota := 1 + target*len(r.keys)/n
		step := (len(r.keys) + quota - 1) / quota
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(r.keys); i += step {
			pool = append(pool, r.keys[i])
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	splitters := make([]uint64, 0, w-1)
	for i := 1; i < w; i++ {
		k := pool[i*len(pool)/w]
		if len(splitters) == 0 || k > splitters[len(splitters)-1] {
			splitters = append(splitters, k)
		}
	}
	// A splitter at or below the global minimum only produces an empty
	// leading range; harmless, so it is kept for simplicity.
	return splitters
}
