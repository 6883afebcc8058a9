package sorts

import (
	"io"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/xheap"
)

// formRuns writes sorted runs over in, fanning contiguous input chunks out
// to env.Parallelism workers. Each worker runs replacement selection with a
// 1/w share of the memory budget, so per-worker budgets sum to M and every
// record is still written exactly once during run formation — the serial
// write count is preserved (runs are shorter by a factor of w, which only
// matters if it pushes the run count past the merge fan-in). With
// parallelism ≤ 1 this is exactly the serial algorithm.
func formRuns(env *algo.Env, in storage.Collection, recSize int) ([]storage.Collection, error) {
	w := env.Workers(in.Len())
	if w > 1 {
		w = capRunWorkers(env, in.Len(), recSize, w)
	}
	if w <= 1 {
		it := in.Scan()
		defer it.Close()
		return formRunsReplacementSelection(env, it, recSize, env.BudgetRecords(recSize))
	}
	children := env.Split(w)
	perWorker := make([][]storage.Collection, w)
	err := env.RunWorkers(w, func(i int) error {
		lo, hi := algo.SplitRange(in.Len(), w, i)
		it := storage.Slice(in, lo, hi).Scan()
		defer it.Close()
		runs, err := formRunsReplacementSelection(children[i], it, recSize, children[i].BudgetRecords(recSize))
		if err != nil {
			return err
		}
		perWorker[i] = runs
		return nil
	})
	if err != nil {
		// A failed or cancelled worker leaves the successful workers' runs
		// orphaned: destroy them here so mid-formation aborts leak nothing.
		for _, rs := range perWorker {
			destroyRuns(rs)
		}
		return nil, err
	}
	var runs []storage.Collection
	for _, r := range perWorker {
		runs = append(runs, r...)
	}
	return runs, nil
}

// destroyRuns best-effort-destroys a batch of temporary runs on an error
// path (Destroy is idempotent; the first error has already been chosen).
func destroyRuns(runs []storage.Collection) {
	for _, r := range runs {
		if r != nil {
			r.Destroy() //nolint:errcheck // best-effort cleanup after failure
		}
	}
}

// capRunWorkers bounds the parallel run-formation fan-out by the merge
// fan-in: w workers with 1/w budget shares form runs of ≈ 2M/w records,
// multiplying the expected run count by w, and once the count crosses
// what the merge phase can absorb, every crossing costs intermediate
// merge passes — reads and writes of the whole input — that the serial
// execution does not pay. At tiny memory budgets (the paper's 1% point)
// that used to turn one merge pass into several. The worker count is
// reduced until the parallel plan's expected pass count, simulated with
// mergePass's own worker grouping (whose per-group fan-in also shrinks
// with P), matches the serial plan's.
func capRunWorkers(env *algo.Env, records, recSize, w int) int {
	budget := env.BudgetRecords(recSize)
	serialRuns := (records + 2*budget - 1) / (2 * budget)
	if serialRuns < 1 {
		serialRuns = 1
	}
	// Merge fan-in with one buffer reserved for a streaming source
	// (segment sort's selection segment), the conservative assumption.
	fanIn := env.BudgetBuffers() - 2
	if fanIn < 2 {
		fanIn = 2
	}
	serialPasses := mergePassesFor(serialRuns, fanIn)
	for w > 1 && mergePassesFor(serialRuns*w, fanIn) > serialPasses {
		w--
	}
	return w
}

// mergePassesFor counts the merge passes beyond the final one needed to
// bring a run count within the serial merge fan-in.
func mergePassesFor(runs, fanIn int) int {
	passes := 0
	for runs > fanIn {
		runs = (runs + fanIn - 1) / fanIn
		passes++
	}
	return passes
}

// formRunsReplacementSelection consumes it and writes sorted runs using
// the classic two-heap replacement-selection scheme with budget records of
// working memory. Runs average twice the memory size on random input,
// which is the 2M assumption of the segment-sort cost model (Eq. 1).
// Returned runs are closed. On error (including cancellation) every run
// created so far is destroyed before returning.
func formRunsReplacementSelection(env *algo.Env, it storage.Iterator, recSize, budget int) ([]storage.Collection, error) {
	var runs []storage.Collection
	done := false
	defer func() {
		if !done {
			destroyRuns(runs)
		}
	}()
	if budget < 1 {
		budget = 1
	}
	poll := env.Poll()
	cur := xheap.New(less, budget) // current run's heap
	var next *record.Vec           // records destined for the next run
	next = record.NewVec(recSize, budget)

	newRun := func() (storage.Collection, error) {
		r, err := env.CreateTemp("run", recSize)
		if err != nil {
			return nil, err
		}
		return sampleRun(r), nil
	}
	run, err := newRun()
	if err != nil {
		return nil, err
	}
	runs = append(runs, run)

	closeRun := func() error {
		if err := run.Close(); err != nil {
			return err
		}
		// Rebuild the current heap from the deferred records and open a
		// fresh run.
		items := make([][]byte, 0, next.Len())
		for i := 0; i < next.Len(); i++ {
			cp := make([]byte, recSize)
			copy(cp, next.At(i))
			items = append(items, cp)
		}
		cur = xheap.Heapify(items, less)
		next.Reset()
		r, err := newRun()
		if err != nil {
			return err
		}
		runs = append(runs, r)
		run = r
		return nil
	}

	for {
		if err := poll(); err != nil {
			return nil, err
		}
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if cur.Len()+next.Len() < budget {
			cp := make([]byte, recSize)
			copy(cp, rec)
			cur.Push(cp)
			continue
		}
		// Memory full: emit the current minimum and place the newcomer.
		min := cur.Pop()
		if err := run.Append(min); err != nil {
			return nil, err
		}
		if !less(rec, min) {
			cp := min[:recSize] // reuse the popped record's storage
			copy(cp, rec)
			cur.Push(cp)
		} else {
			next.Append(rec)
		}
		if cur.Len() == 0 {
			if err := closeRun(); err != nil {
				return nil, err
			}
		}
	}
	// Drain: current heap finishes the current run, the deferred records
	// form one final run.
	for cur.Len() > 0 {
		if err := run.Append(cur.Pop()); err != nil {
			return nil, err
		}
	}
	if err := run.Close(); err != nil {
		return nil, err
	}
	if next.Len() > 0 {
		r, err := newRun()
		if err != nil {
			return nil, err
		}
		next.SortByKey()
		for i := 0; i < next.Len(); i++ {
			if err := r.Append(next.At(i)); err != nil {
				return nil, err
			}
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	// Drop trailing empty runs (possible on empty input).
	out := runs[:0]
	for _, r := range runs {
		if r.Len() > 0 {
			out = append(out, r)
		} else if err := r.Destroy(); err != nil {
			return nil, err
		}
	}
	done = true
	return out, nil
}

// mergeRuns merges sorted runs into out with fan-in bounded by the memory
// budget (one block buffer per open run plus one for the output).
// Intermediate merge passes create and destroy temporary runs; input runs
// are destroyed as they are consumed.
func mergeRuns(env *algo.Env, runs []storage.Collection, out storage.Collection, recSize int) error {
	return mergeRunsWith(env, runs, nil, out, recSize)
}

// mergeRunsWith additionally merges streaming sorted sources into the
// final pass. Streams participate only in the last merge — they are the
// write-avoidance mechanism of segment sort's selection segment, whose
// records must be written exactly once, at their final location in out.
// The final pass — the last generation of runs plus the streams into out
// — is phase-bracketed as FinalMergePhase. With no streams it fans out
// across workers through parallelFinalMerge (order-preserving key-domain
// split, byte-identical output and cacheline writes); streaming sources
// are single-cursor by construction, so any stream keeps the final pass
// serial.
func mergeRunsWith(env *algo.Env, runs []storage.Collection, streams []storage.Iterator, out storage.Collection, recSize int) error {
	fanIn := env.BudgetBuffers() - 1 - len(streams)
	if fanIn < 2 {
		fanIn = 2
	}
	for len(runs) > fanIn {
		var err error
		// A failed pass destroys both generations inside mergePass.
		if runs, err = mergePass(env, runs, recSize, len(streams)); err != nil {
			return err
		}
	}
	return env.TimePhase(FinalMergePhase, func() error {
		if len(streams) == 0 {
			if handled, err := parallelFinalMerge(env, runs, out, recSize); handled {
				return err
			}
		}
		iters := make([]storage.Iterator, 0, len(runs)+len(streams))
		for _, r := range runs {
			iters = append(iters, r.Scan())
		}
		iters = append(iters, streams...)
		if err := mergeIters(iters, pollEmit(env, out.Append)); err != nil {
			destroyRuns(runs)
			return err
		}
		for _, r := range runs {
			if err := r.Destroy(); err != nil {
				return err
			}
		}
		return nil
	})
}

// mergePass merges one generation of runs into the next, fanning
// independent merge groups out to env.Parallelism workers. The per-group
// fan-in shrinks with the worker count so the total number of open block
// buffers stays within the memory budget (w groups of g runs plus one
// output buffer each: w·(g+1) ≤ M/B − reserved, where reserved keeps the
// buffers set aside for the final merge's streaming sources — at w = 1
// this reproduces the serial grouping exactly).
func mergePass(env *algo.Env, runs []storage.Collection, recSize, reserved int) ([]storage.Collection, error) {
	w := env.Workers((len(runs) + 1) / 2)
	// Run-count-aware cap, the merge-phase twin of capRunWorkers: w
	// concurrent merge groups share the buffer budget, so the per-group
	// fan-in shrinks with w and the pass leaves more runs behind. Never
	// let that cost a later pass the serial grouping avoids.
	fullFan := env.BudgetBuffers() - reserved - 1
	if fullFan < 2 {
		fullFan = 2
	}
	serialNext := (len(runs) + fullFan - 1) / fullFan
	for w > 1 {
		fan := (env.BudgetBuffers()-reserved)/w - 1
		if fan < 2 {
			fan = 2
		}
		next := (len(runs) + fan - 1) / fan
		if mergePassesFor(next, fullFan) <= mergePassesFor(serialNext, fullFan) {
			break
		}
		w--
	}
	var groupFan, nGroups int
	for {
		groupFan = (env.BudgetBuffers()-reserved)/w - 1
		if groupFan < 2 {
			groupFan = 2
		}
		nGroups = (len(runs) + groupFan - 1) / groupFan
		if w <= nGroups {
			break
		}
		// Fewer groups than workers: surviving workers may take the
		// freed-up buffers as extra fan-in.
		w = nGroups
	}
	var children []*algo.Env
	if w > 1 {
		children = env.Split(w)
	} else {
		children = []*algo.Env{env}
	}
	nextGen := make([]storage.Collection, nGroups)
	workErr := env.RunWorkers(w, func(wi int) error {
		child := children[wi]
		for g := wi; g < nGroups; g += w {
			lo := g * groupFan
			hi := lo + groupFan
			if hi > len(runs) {
				hi = len(runs)
			}
			group := runs[lo:hi]
			if len(group) == 1 {
				nextGen[g] = group[0]
				continue
			}
			mergedTemp, err := child.CreateTemp("merge", recSize)
			if err != nil {
				return err
			}
			merged := sampleRun(mergedTemp)
			if err := mergeInto(child, group, merged); err != nil {
				merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
				return err
			}
			if err := merged.Close(); err != nil {
				merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
				return err
			}
			for _, r := range group {
				if err := r.Destroy(); err != nil {
					return err
				}
			}
			nextGen[g] = merged
		}
		return nil
	})
	if workErr != nil {
		// Destroy both generations: already-merged groups, the failed
		// worker's leftovers and the untouched input runs (Destroy is
		// idempotent for the runs that were consumed before the error).
		destroyRuns(nextGen)
		destroyRuns(runs)
		return nil, workErr
	}
	return nextGen, nil
}

// mergeInto k-way merges the sorted runs into a collection, polling
// env's cancellation between emissions.
func mergeInto(env *algo.Env, runs []storage.Collection, out storage.Collection) error {
	iters := make([]storage.Iterator, len(runs))
	for i, r := range runs {
		iters[i] = r.Scan()
	}
	return mergeIters(iters, pollEmit(env, out.Append))
}

// mergeIters k-way merges sorted iterators into emit, closing them.
func mergeIters(iters []storage.Iterator, emit func(rec []byte) error) error {
	for _, it := range iters {
		defer it.Close()
	}
	if len(iters) == 0 {
		return nil
	}
	if len(iters) == 1 {
		for {
			rec, err := iters[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
	}
	type head struct {
		rec []byte
		src int
	}
	h := xheap.New(func(a, b head) bool { return less(a.rec, b.rec) }, len(iters))
	advance := func(src int) error {
		rec, err := iters[src].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		h.Push(head{cp, src})
		return nil
	}
	for i := range iters {
		if err := advance(i); err != nil {
			return err
		}
	}
	for h.Len() > 0 {
		top := h.Pop()
		if err := emit(top.rec); err != nil {
			return err
		}
		if err := advance(top.src); err != nil {
			return err
		}
	}
	return nil
}
