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
// parallelism ≤ 1 this is exactly the serial algorithm. sample says
// whether the runs keep a key sidecar (sampling): the workers' child
// environments run at Parallelism 1 but their runs feed this
// environment's final merge, so the caller decides, not the worker. A
// folding worker (combine set) folds its own chunk, so it still writes
// no more records than the chunk holds.
func formRuns(env *algo.Env, in storage.Collection, recSize int, sample bool, combine func(dst, src []byte)) ([]storage.Collection, error) {
	w := env.Workers(in.Len())
	if w > 1 {
		w = capRunWorkers(env, in.Len(), recSize, w)
	}
	if w <= 1 {
		return formRunsReplacementSelection(env, in, env.BudgetRecords(recSize), sample, combine)
	}
	children := env.Split(w)
	perWorker := make([][]storage.Collection, w)
	err := env.RunWorkers(w, func(i int) error {
		lo, hi := algo.SplitRange(in.Len(), w, i)
		runs, err := formRunsReplacementSelection(children[i], storage.Slice(in, lo, hi), children[i].BudgetRecords(recSize), sample, combine)
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
// reduced until the parallel plan's expected pass count, at mergePass's
// serial fan-in, matches the serial plan's.
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

// runFormer is two-heap replacement selection over one keyed slab of
// budget records (xheap.Keyed): the min tree holds the current run, next
// lists the slab residents that arrived too small for it and wait for
// the following run (their leaves are sentinels meanwhile). A record is
// copied once, into the slot of the record it evicts; moving between
// tree and list moves only its entry.
// Runs average twice the memory size on random input, which is the 2M
// assumption of the segment-sort cost model (Eq. 1). Runs are opened
// lazily, so none is ever empty; on an error path the owner destroys
// runs.
//
// A folding former (combine set) takes partial aggregates and writes one
// per eviction: an arriving record whose key is resident — in the tree
// or on the next-run list, found through index — is combined into that
// slot in place, and only a miss takes the replacement-selection step.
// Resident keys are therefore distinct, so the tree never compares two
// records' bytes and an in-place combine cannot disturb its order; a
// run's keys ascend strictly.
type runFormer struct {
	env     *algo.Env
	prefix  string // temp name stem of the runs
	sample  bool   // runs keep a key sidecar for a parallel final merge (sampling)
	heap    *xheap.Keyed
	next    []xheap.Entry
	run     storage.Collection // open run, nil between runs
	runs    []storage.Collection
	combine func(dst, src []byte) // folding: merges partial src into the resident partial dst
	index   *xheap.Index          // folding: key → slot of every resident record
}

func newRunFormer(env *algo.Env, prefix string, recSize, budget int, sample bool, combine func(dst, src []byte)) *runFormer {
	f := &runFormer{env: env, prefix: prefix, sample: sample, heap: xheap.NewKeyed(recSize, budget, false)}
	if combine != nil {
		f.combine, f.index = combine, new(xheap.Index)
	}
	return f
}

// add places rec in working memory, spilling the current run's minimum
// to make room once memory is full (Algorithm 1, lines 6–16).
func (f *runFormer) add(rec []byte) error {
	key := record.Key(rec)
	if f.index != nil {
		return f.fold(key, rec)
	}
	_, err := f.place(key, rec)
	return err
}

// fold is add for a folding former: a resident key absorbs rec, a new
// one takes the slot place frees and is indexed there.
func (f *runFormer) fold(key uint64, rec []byte) error {
	if slot, ok := f.index.Find(key); ok {
		f.combine(f.heap.Record(slot), rec)
		return nil
	}
	evicts := f.heap.Full()
	slot, err := f.place(key, rec)
	if err != nil {
		return err
	}
	if evicts {
		f.index.Remove(slot)
	}
	f.index.Insert(key, slot)
	return nil
}

// place is the replacement-selection step: it copies rec into a fresh
// slot while memory lasts, and otherwise into the slot of the current
// run's minimum, which it spills first. It returns rec's slot.
func (f *runFormer) place(key uint64, rec []byte) (uint32, error) {
	if !f.heap.Full() {
		return f.heap.Push(key, 0, rec), nil
	}
	if f.heap.Len() == 0 {
		// The current run is exhausted: everything in memory belongs to
		// the next one.
		if err := f.rotate(); err != nil {
			return 0, err
		}
	}
	low := f.heap.Top()
	lowRec := f.heap.Record(low.Slot)
	if err := f.emit(lowRec); err != nil {
		return 0, err
	}
	if !xheap.Before(key, rec, 0, low.Key, lowRec, 0) {
		f.heap.ReplaceTop(key, 0, rec)
		return low.Slot, nil
	}
	// rec is too small for the current run: it takes the spilled
	// record's slot and waits for the next one.
	f.heap.Pop()
	copy(lowRec, rec)
	if f.next == nil {
		f.next = make([]xheap.Entry, 0, f.heap.Limit()) // sized once: any slot can end up deferred
	}
	f.next = append(f.next, xheap.Entry{Key: key, Slot: low.Slot})
	return low.Slot, nil
}

// emit appends rec to the current run, opening one if needed.
func (f *runFormer) emit(rec []byte) error {
	if f.run == nil {
		r, err := f.env.CreateTemp(f.prefix, len(rec))
		if err != nil {
			return err
		}
		if f.sample {
			r = sampleRun(r)
		}
		f.run = r
		f.runs = append(f.runs, r)
	}
	return f.run.Append(rec)
}

// rotate closes the current run and promotes the deferred records to a
// fresh current tree.
func (f *runFormer) rotate() error {
	if f.run != nil {
		if err := f.run.Close(); err != nil {
			return err
		}
		f.run = nil
	}
	f.heap.Heapify(f.next)
	f.next = f.next[:0]
	return nil
}

// finish drains working memory — the current tree completes the open
// run, the deferred records form one last run — leaving every run in
// runs closed, and releases the slab: the merge that reads the runs
// allocates its own fan-in buffers, and the two never need to coexist.
func (f *runFormer) finish() error {
	for {
		for f.heap.Len() > 0 {
			if err := f.emit(f.heap.Record(f.heap.Pop().Slot)); err != nil {
				return err
			}
		}
		if err := f.rotate(); err != nil {
			return err
		}
		if f.heap.Len() == 0 {
			f.heap, f.next, f.index = nil, nil, nil
			return nil
		}
	}
}

// Intake is external mergesort with its input pushed instead of pulled:
// the paper's process-to-append rule (§3.1) as a kernel. Whoever
// produces the records appends them — a scan of a stored collection
// (ExMS and SegS's run segment, formRunsReplacementSelection), or an
// operator that hands the intake to its producer as the producer's
// output, so the producer's result is never stored just for run
// formation to read it back. Append is the replacement-selection step
// (runFormer.add) behind the environment's cancellation poll, MergeInto
// is mergeRuns, and Stream ends it in a reader instead. It is a
// write-only collection (storage.Sink: Len counts the records taken;
// neither range-appendable nor unwrappable), one ordered stream, so run
// formation through it is serial at any P; the merge passes and the
// final merge run as ExMS's do; an input that fits memory writes no
// run. The intake owns its runs until MergeInto or Stream hands them on;
// Discard sweeps them on any path that never gets there.
type Intake struct {
	*storage.Sink
	env *algo.Env
	f   *runFormer
}

// NewIntake returns an intake of recSize-byte records forming runs with
// env's whole budget. With combine set it is SortFolding's ExMS pushed:
// it writes one partial per eviction, never more than it takes, and
// MergeInto emits one record per key from a serial final merge. pulled
// says the intake will be ended by Stream, whose final merge is a serial
// pull: like a folding intake's, its runs keep no key sidecar.
func NewIntake(env *algo.Env, recSize int, combine func(dst, src []byte), pulled bool) (*Intake, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return newIntake(env, recSize, env.BudgetRecords(recSize), sampling(env, pulled || combine != nil), combine), nil
}

func newIntake(env *algo.Env, recSize, budget int, sample bool, combine func(dst, src []byte)) *Intake {
	f := newRunFormer(env, "run", recSize, budget, sample, combine)
	return &Intake{Sink: storage.NewSink("intake", recSize, env.Polled(f.add), nil), env: env, f: f}
}

// finish drains working memory into the last runs and releases them to
// the caller, closed and non-empty; on error every run is destroyed.
func (in *Intake) finish() ([]storage.Collection, error) {
	if err := in.f.finish(); err != nil {
		in.Discard()
		return nil, err
	}
	runs := in.f.runs
	in.f.runs = nil
	return runs, nil
}

// MergeInto ends the intake: it merges the runs formed from the
// appended records into out, in ascending order (a folding intake's one
// record per key), and closes out — a resident intake's heap goes
// straight to out. out must be empty and of the intake's record size — a
// collection, a sink or the next stage's intake. On error (including
// cancellation) no run survives.
func (in *Intake) MergeInto(out storage.Collection) error {
	if err := checkArgs(in.env, in, out); err != nil {
		in.Discard()
		return err
	}
	if in.resident() {
		if err := in.popHeap().drain(out.Append); err != nil {
			return err
		}
		return out.Close()
	}
	runs, err := in.finish()
	if err != nil {
		return err
	}
	if err := mergeRuns(in.env, runs, nil, out, in.RecordSize(), in.f.combine); err != nil {
		destroyRuns(runs) // Destroy is idempotent: whatever the failed merge left
		return err
	}
	return out.Close()
}

// Stream ends the intake in its reader: it returns the records taken in
// ascending order (a folding intake's one record per key) as an iterator
// the caller pulls and must Close, so the result is never written only to
// be read back. A resident intake pops its heap, in chunks that alias the
// heap's slots, and writes nothing. An evicting one drains working memory
// into its last runs and merges them — intermediate passes as MergeInto's
// — until the final merge's fan-in takes them all; that final merge is
// the iterator, a pull merge that copies each chunk into a buffer it owns
// and polls the environment's context. The iterator owns those runs and
// Close destroys them; on error no run survives.
func (in *Intake) Stream() (storage.Iterator, error) {
	if in.resident() {
		return in.popHeap(), nil
	}
	runs, err := in.finish()
	if err != nil {
		return nil, err
	}
	recSize := in.RecordSize()
	if runs, err = mergeDown(in.env, runs, recSize, 0, in.f.combine); err != nil {
		return nil, err
	}
	m, err := newMerger(in.env, scans(runs), recSize, in.f.combine)
	if err != nil {
		destroyRuns(runs)
		return nil, err
	}
	m.runs = runs
	return m, nil
}

// resident reports whether the intake never evicted a record: no run was
// opened, so the heap holds everything it took and nothing waits for a
// next run.
func (in *Intake) resident() bool { return in.f.run == nil && len(in.f.runs) == 0 }

// popHeap is a resident intake's stream: a merger whose heads are the
// heap's records, each its own exhausted source. Their keys are distinct
// when the intake folds, so nothing is left to combine.
func (in *Intake) popHeap() *merger {
	m := &merger{heads: in.f.heap, poll: in.env.Poll(), alias: true}
	m.cur = m.least()
	return m
}

// Discard destroys the runs formed so far: the error-path twin of
// MergeInto, for a producer that failed or was cancelled mid-emit.
// Idempotent, and a no-op once MergeInto or Stream has run.
func (in *Intake) Discard() {
	destroyRuns(in.f.runs)
	in.f.runs = nil
}

// formRunsReplacementSelection is a scan of src into an intake of budget
// records, folding when combine is set: the pull form of run formation.
// Returned runs are closed and non-empty. On error (including
// cancellation) every run created so far is destroyed before returning.
func formRunsReplacementSelection(env *algo.Env, src storage.Collection, budget int, sample bool, combine func(dst, src []byte)) ([]storage.Collection, error) {
	in := newIntake(env, src.RecordSize(), budget, sample, combine)
	if err := env.Scan(src, in.Append); err != nil {
		in.Discard()
		return nil, err
	}
	return in.finish()
}

// sampling reports whether runs that will meet in env's final merge keep
// a key sidecar (sampleRun): only parallelFinalMerge reads it, and that
// needs P ≥ 2 and a final merge that is not serial anyway — serial says
// a streaming source meets the runs there, the merge folds, or a reader
// pulls it (Intake.Stream). Merge passes keep what formation decided.
func sampling(env *algo.Env, serial bool) bool {
	return env.Parallelism > 1 && !serial
}

// mergeRuns merges sorted runs into out with fan-in bounded by the memory
// budget (one block buffer per open run plus one for the output).
// Intermediate merge passes create and destroy temporary runs; input runs
// are destroyed as they are consumed. Streaming sorted sources, if any,
// are merged in as well, but participate only in the last merge — they
// are the write-avoidance mechanism of segment sort's selection segment,
// whose records must be written exactly once, at their final location in
// out. The final pass — the last generation of runs plus the streams into
// out — is phase-bracketed as FinalMergePhase. With no streams it fans
// out across workers through parallelFinalMerge (order-preserving
// key-domain split, byte-identical output and cacheline writes);
// streaming sources are single-cursor by construction, so any stream
// keeps the final pass serial. A non-nil combine folds: every pass
// combines the records of equal keys into one (mergeIters), and the
// final pass stays serial.
func mergeRuns(env *algo.Env, runs []storage.Collection, streams []storage.Iterator, out storage.Collection, recSize int, combine func(dst, src []byte)) error {
	runs, err := mergeDown(env, runs, recSize, len(streams), combine)
	if err != nil {
		return err
	}
	return env.TimePhase(FinalMergePhase, func() error {
		if len(streams) == 0 && combine == nil {
			if handled, err := parallelFinalMerge(env, runs, out, recSize); handled {
				return err
			}
		}
		iters := append(scans(runs), streams...)
		if err := mergeIters(env, iters, recSize, out.Append, combine); err != nil {
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

// mergeDown runs merge passes until the final merge's fan-in — one block
// buffer per run and one for the output, beside streams streaming
// sources, never below two runs — takes every run left. A failed pass
// destroys both generations inside mergePass.
func mergeDown(env *algo.Env, runs []storage.Collection, recSize, streams int, combine func(dst, src []byte)) ([]storage.Collection, error) {
	fanIn := max(env.BudgetBuffers()-1-streams, 2)
	for len(runs) > fanIn {
		var err error
		if runs, err = mergePass(env, runs, recSize, streams, combine); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// scans opens one scan per run.
func scans(runs []storage.Collection) []storage.Iterator {
	iters := make([]storage.Iterator, len(runs))
	for i, r := range runs {
		iters[i] = r.Scan()
	}
	return iters
}

// mergePass merges one generation of runs into the next: groups of the
// serial fan-in — one block buffer per run and one for the output, beside
// the reserved buffers of the final merge's streaming sources — merged one
// at a time, so the groups, and a folding merge's writes, are the same at
// every P. combine is mergeRuns'.
func mergePass(env *algo.Env, runs []storage.Collection, recSize, reserved int, combine func(dst, src []byte)) ([]storage.Collection, error) {
	fanIn := max(env.BudgetBuffers()-reserved-1, 2)
	_, sample := runs[0].(*sampledRun) // as their formation decided (sampling)
	var next []storage.Collection
	for lo := 0; lo < len(runs); lo += fanIn {
		group := runs[lo:min(lo+fanIn, len(runs))]
		if len(group) == 1 {
			next = append(next, group[0])
			continue
		}
		merged, err := mergeGroup(env, group, recSize, sample, combine)
		if err != nil {
			// Destroy both generations: the merged groups and the input
			// runs (Destroy is idempotent for the runs already consumed).
			destroyRuns(next)
			destroyRuns(runs)
			return nil, err
		}
		next = append(next, merged)
	}
	return next, nil
}

// mergeGroup merges one group of runs into a new run and destroys them.
func mergeGroup(env *algo.Env, group []storage.Collection, recSize int, sample bool, combine func(dst, src []byte)) (storage.Collection, error) {
	temp, err := env.CreateTemp("merge", recSize)
	if err != nil {
		return nil, err
	}
	merged := temp
	if sample {
		merged = sampleRun(temp)
	}
	if err := mergeInto(env, group, merged, combine); err != nil {
		merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return nil, err
	}
	if err := merged.Close(); err != nil {
		merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
		return nil, err
	}
	for _, r := range group {
		if err := r.Destroy(); err != nil {
			merged.Destroy() //nolint:errcheck // best-effort cleanup after failure
			return nil, err
		}
	}
	return merged, nil
}

// mergeInto k-way merges the sorted runs into a collection.
func mergeInto(env *algo.Env, runs []storage.Collection, out storage.Collection, combine func(dst, src []byte)) error {
	return mergeIters(env, scans(runs), out.RecordSize(), out.Append, combine)
}

// mergeIters k-way merges sorted iterators of recSize-byte records into
// emit, closing them: the push form of merger, a drain of it. Each
// record reaches emit as a view of its head slot, never copied again.
func mergeIters(env *algo.Env, iters []storage.Iterator, recSize int, emit func(rec []byte) error, combine func(dst, src []byte)) error {
	m, err := newMerger(env, iters, recSize, combine)
	if err != nil {
		return err
	}
	defer m.Close() //nolint:errcheck // owns no runs: closing read-only scans
	return m.drain(emit)
}

// merger is the kernels' one k-way merge, in pull form. Each source is
// read one block chunk at a time; the merge's working memory is one keyed
// slab with a head slot per source (the entry's tie-break names the
// source), so advancing a source overwrites its head in place, replays
// that source's leaf of the tree of losers, and a pull allocates nothing. A source advances lazily, when the record after its
// head is asked for: the record last handed out is still its head slot,
// valid until the following call, and a folding merge looks at the next
// head without consuming it. One source is served straight from its
// cursor. A head whose tie-break names no source is its own, exhausted
// source: a resident intake's heap pops as a merge (Intake.popHeap). With
// combine set, the records of one key — adjacent in merge order — come
// out as one, combined in a buffer the merger owns. Cancellation is
// polled once per record consumed.
type merger struct {
	heads   *xheap.Keyed // nil: one source
	cur     []byte       // the least record not consumed (a head slot, or the one source's), nil past the end
	stale   bool         // cur was handed out: the next pull advances past it
	srcs    []*storage.Cursor
	poll    func() error
	combine func(dst, src []byte)
	iters   []storage.Iterator // closed by Close
	acc     []byte             // folding: the open key's combined record
	recSize int
	alias   bool                 // handed-out records stay valid (no source overwrites a head): chunks are views
	chunk   [][]byte             // NextChunk's result
	buf     []byte               // NextChunk's copies, unless alias
	runs    []storage.Collection // owned: destroyed by Close (Intake.Stream's last runs)
}

// newMerger opens a merge of iters, reading the first record of each;
// on error they are closed.
func newMerger(env *algo.Env, iters []storage.Iterator, recSize int, combine func(dst, src []byte)) (*merger, error) {
	m := &merger{iters: iters, srcs: make([]*storage.Cursor, len(iters)), poll: env.Poll(), combine: combine, recSize: recSize}
	if combine != nil {
		m.acc = make([]byte, recSize)
	}
	chunk := env.ChunkRecords(recSize)
	for i, it := range iters {
		m.srcs[i] = storage.NewCursor(it, chunk)
	}
	if len(iters) == 1 {
		m.stale = true // the first pull reads the first record
		return m, nil
	}
	m.heads = xheap.NewKeyed(recSize, len(iters), false)
	for i, src := range m.srcs {
		rec, err := src.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			m.Close() //nolint:errcheck // owns no runs yet: closing read-only scans
			return nil, err
		}
		m.heads.Push(record.Key(rec), uint32(i), rec)
	}
	m.cur = m.least()
	return m, nil
}

// least is the heads' least record, nil once they are exhausted.
func (m *merger) least() []byte {
	if m.heads.Len() == 0 {
		return nil
	}
	return m.heads.Record(m.heads.Top().Slot)
}

// advance consumes cur: its source's next record takes its place, and
// cur becomes the least record left.
func (m *merger) advance() error {
	if err := m.poll(); err != nil {
		return err
	}
	h := m.heads
	if h == nil {
		rec, err := m.srcs[0].Next()
		if err != nil && err != io.EOF {
			return err
		}
		m.cur, m.stale = rec, false
		return nil
	}
	top := h.Top()
	if int(top.Tie) < len(m.srcs) {
		rec, err := m.srcs[top.Tie].Next()
		if err == nil {
			h.ReplaceTop(record.Key(rec), top.Tie, rec)
			m.cur, m.stale = h.Record(h.Top().Slot), false
			return nil
		}
		if err != io.EOF {
			return err
		}
	}
	h.Pop() // the source is exhausted
	m.cur, m.stale = m.least(), false
	return nil
}

// next consumes and returns the merge's next record — a folding merge's
// one record for the next key — valid until the following call, or
// io.EOF.
func (m *merger) next() ([]byte, error) {
	if m.stale {
		if err := m.advance(); err != nil {
			return nil, err
		}
	}
	if m.cur == nil {
		return nil, io.EOF
	}
	m.stale = true
	if m.combine != nil {
		return m.fold()
	}
	return m.cur, nil
}

// fold combines cur and the records of its key after it into acc,
// leaving the next key's first record unconsumed.
func (m *merger) fold() ([]byte, error) {
	key := record.Key(m.cur)
	copy(m.acc, m.cur)
	for {
		if err := m.advance(); err != nil {
			return nil, err
		}
		if m.cur == nil || record.Key(m.cur) != key {
			return m.acc, nil
		}
		m.combine(m.acc, m.cur)
	}
}

// drain hands every remaining record to emit. Unfolded, the loop is
// next's step written out — the merge passes' inner loop, where the call
// costs a few percent.
func (m *merger) drain(emit func(rec []byte) error) error {
	for m.combine == nil {
		if m.stale {
			if err := m.advance(); err != nil {
				return err
			}
		}
		if m.cur == nil {
			return nil
		}
		m.stale = true
		if err := emit(m.cur); err != nil {
			return err
		}
	}
	for {
		rec, err := m.next()
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

// Next is the one-record pull: a view, valid until the following call.
func (m *merger) Next() ([]byte, error) { return m.next() }

// NextChunk pulls up to n records, copied into a buffer the merger owns —
// the next pull advances the sources whose heads they were — or, for a
// resident heap, as views of its slots.
func (m *merger) NextChunk(n int) ([][]byte, error) {
	n = max(n, 1)
	if !m.alias && len(m.buf) < n*m.recSize {
		m.buf = make([]byte, n*m.recSize)
	}
	m.chunk = m.chunk[:0]
	for len(m.chunk) < n {
		rec, err := m.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !m.alias {
			off := len(m.chunk) * m.recSize
			dst := m.buf[off : off+m.recSize : off+m.recSize]
			copy(dst, rec)
			rec = dst
		}
		m.chunk = append(m.chunk, rec)
	}
	if len(m.chunk) == 0 {
		return nil, io.EOF
	}
	return m.chunk, nil
}

// Close closes the sources and destroys the runs the merger owns,
// keeping the first error. Idempotent.
func (m *merger) Close() error {
	for _, it := range m.iters {
		it.Close() //nolint:errcheck // read-only scan teardown
	}
	m.iters = nil
	var first error
	for _, r := range m.runs {
		if err := r.Destroy(); err != nil && first == nil {
			first = err
		}
	}
	m.runs = nil
	return first
}
