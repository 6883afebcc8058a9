package joins

import (
	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// The partitioned joins parallelize the two phases that dominate their
// cost while leaving the emission order byte-for-byte identical to the
// serial algorithms:
//
//   - partitioning: the input scan fans out over contiguous chunks, each
//     worker hashing into its own set of sub-collections; partition p is
//     the ordered list of the workers' sub-collections, whose
//     concatenation in worker order reproduces the serial partition
//     contents record-for-record.
//   - building: each partition's hash table is built by workers over
//     contiguous chunks of the build stream, each filling a private record
//     vector; an order-restoring merge concatenates the vectors in worker
//     order and indexes the result in one pass, reconstituting the exact
//     serial insertion order (which determines per-key match order) before
//     any probe runs.
//   - probing: the table is probed by several workers over contiguous
//     chunks of the probe stream. Matches are staged in small per-worker
//     DRAM buffers and appended to the output through a turnstile in chunk
//     order, so the output sequence equals the serial one for every
//     parallelism level.
//
// The device I/O counts are preserved up to block-boundary effects: every
// record is still partitioned once, read once per the algorithm's scan
// plan and emitted once; the only extra traffic is the partial head/tail
// blocks of chunked scans and of the additional sub-collections.

// orderedOutputCap bounds each probe worker's DRAM staging buffer in
// bytes. It is deliberately small — the analogue of the single output
// block buffer every external algorithm holds outside M — because a worker
// whose buffer fills simply blocks until its turn and then streams
// directly to the output.
const orderedOutputCap = 64 << 10

// orderedEmit is one probe worker's view of the shared emitter: matches
// are buffered in DRAM until the worker's turn in the output order
// arrives, then flushed and streamed directly.
type orderedEmit struct {
	em        *emitter
	ts        *algo.Turnstile
	i         int
	buf       *record.Vec
	scratch   []byte
	bufCap    int
	turnTaken bool
	done      bool
}

func newOrderedEmit(em *emitter, ts *algo.Turnstile, i int) *orderedEmit {
	recSize := em.out.RecordSize()
	bufCap := orderedOutputCap / recSize
	if bufCap < 1 {
		bufCap = 1
	}
	return &orderedEmit{
		em:      em,
		ts:      ts,
		i:       i,
		buf:     record.NewVec(recSize, 0),
		scratch: make([]byte, recSize),
		bufCap:  bufCap,
	}
}

func (o *orderedEmit) emit(left, right []byte) error {
	if o.turnTaken {
		return o.em.emit(left, right)
	}
	if o.em.project {
		o.buf.Append(right)
	} else {
		copy(o.scratch, left)
		copy(o.scratch[o.em.lsize:], right)
		o.buf.Append(o.scratch)
	}
	if o.buf.Len() >= o.bufCap {
		return o.takeTurn()
	}
	return nil
}

// takeTurn waits for the worker's slot in the output order and flushes the
// staged matches; subsequent emissions stream directly.
func (o *orderedEmit) takeTurn() error {
	o.ts.Wait(o.i)
	o.turnTaken = true
	for j := 0; j < o.buf.Len(); j++ {
		if err := o.em.out.Append(o.buf.At(j)); err != nil {
			return err
		}
	}
	o.buf.Reset()
	return nil
}

// finish flushes any staged matches and hands the output over to the next
// worker.
func (o *orderedEmit) finish() error {
	if !o.turnTaken {
		if err := o.takeTurn(); err != nil {
			return err
		}
	}
	o.done = true
	o.ts.Done(o.i)
	return nil
}

// release guarantees the turn hand-off happens even when the worker's scan
// failed, so successors blocked on the turnstile never deadlock. It is a
// no-op after a successful finish.
func (o *orderedEmit) release() {
	if o.done {
		return
	}
	if !o.turnTaken {
		o.ts.Wait(o.i)
		o.turnTaken = true
	}
	o.done = true
	o.ts.Done(o.i)
}

// parallelProbe probes the record streams of srcs, in order, against
// table, emitting matches through em exactly as the serial algorithm
// would: stream-major, then probe-record-major, then build-insertion
// order. Stream i is handled by worker i; records failing filter (when
// non-nil) are skipped. Each worker polls env's cancellation between
// probe records, so a cancelled join stops mid-probe.
func parallelProbe(env *algo.Env, srcs []storage.Collection, table *hashTable, filter func(rec []byte) bool, em *emitter) error {
	probeOne := func(src storage.Collection, emit func(l, r []byte) error) error {
		return env.Scan(src, env.Polled(func(r []byte) error {
			if filter != nil && !filter(r) {
				return nil
			}
			return table.probe(record.Key(r), func(l []byte) error {
				return emit(l, r)
			})
		}))
	}
	if len(srcs) == 0 {
		return nil
	}
	if len(srcs) == 1 {
		return probeOne(srcs[0], em.emit)
	}
	ts := algo.NewTurnstile(len(srcs))
	return env.RunWorkers(len(srcs), func(i int) error {
		oe := newOrderedEmit(em, ts, i)
		defer oe.release()
		if err := probeOne(srcs[i], oe.emit); err != nil {
			return err
		}
		return oe.finish()
	})
}

// probeRange probes src against table with env.Parallelism workers over
// contiguous record ranges; emission order equals a serial scan of src.
func probeRange(env *algo.Env, src storage.Collection, table *hashTable, filter func(rec []byte) bool, em *emitter) error {
	w := env.Workers(src.Len())
	if w <= 1 {
		return parallelProbe(env, []storage.Collection{src}, table, filter, em)
	}
	srcs := make([]storage.Collection, w)
	for i := range srcs {
		lo, hi := algo.SplitRange(src.Len(), w, i)
		srcs[i] = storage.Slice(src, lo, hi)
	}
	return parallelProbe(env, srcs, table, filter, em)
}

// BuildPhase names the hash-table build passes of the partitioned joins
// in the environment's phase recorder. The phase is read-only on the
// device: its cacheline write count is zero at every parallelism level.
const BuildPhase = "build"

// buildTableParallel builds the in-memory hash table over the
// concatenated record stream of subs, skipping records that fail filter
// (when non-nil). Under env.Parallelism > 1 the stream is split into
// contiguous chunks and each worker fills a private record vector — the
// device-read-bound half of the build, which is what overlapping
// workers speed up. An order-restoring merge then concatenates the
// vectors in worker order and indexes the merged vector in one DRAM
// pass (hashTable.link), so the vector and every per-key list are
// exactly what the serial scan would have produced and per-key match
// order (and with it the join's output byte stream) is unchanged.
// Keeping the workers free of index work means the parallel build does
// no more total CPU than the serial one — the index is built exactly
// once either way. The per-worker vectors are transient DRAM; the merged
// table is the same size as the serial one.
func buildTableParallel(env *algo.Env, subs []storage.Collection, filter func(rec []byte) bool) (*hashTable, error) {
	var table *hashTable
	err := env.TimePhase(BuildPhase, func() error {
		n := lenAll(subs)
		recSize := subs[0].RecordSize()
		w := env.Workers(n)
		if w <= 1 {
			t := newHashTable(recSize, n)
			err := scanAllInto(env, subs, env.Polled(func(rec []byte) error {
				if filter == nil || filter(rec) {
					t.insert(rec)
				}
				return nil
			}))
			if err != nil {
				return err
			}
			table = t
			return nil
		}
		parts := make([]*record.Vec, w)
		err := env.RunWorkers(w, func(i int) error {
			lo, hi := algo.SplitRange(n, w, i)
			part := record.NewVec(recSize, hi-lo)
			keep := env.Polled(func(rec []byte) error {
				if filter == nil || filter(rec) {
					part.Append(rec)
				}
				return nil
			})
			base := 0
			for _, c := range subs {
				clo, chi := lo-base, hi-base
				base += c.Len()
				if clo < 0 {
					clo = 0
				}
				if chi > c.Len() {
					chi = c.Len()
				}
				if clo >= chi {
					continue
				}
				if err := env.Scan(storage.Slice(c, clo, chi), keep); err != nil {
					return err
				}
			}
			parts[i] = part
			return nil
		})
		if err != nil {
			return err
		}
		merged := newHashTable(recSize, n)
		for _, part := range parts {
			merged.vec.AppendVec(part)
		}
		for pos := 0; pos < merged.vec.Len(); pos++ {
			merged.link(record.Key(merged.vec.At(pos)))
		}
		table = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// scanAllInto streams every record of subs, in order, into fn.
func scanAllInto(env *algo.Env, subs []storage.Collection, fn func(rec []byte) error) error {
	for _, c := range subs {
		if err := env.Scan(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// closeAll closes every collection in subs.
func closeAll(subs []storage.Collection) error {
	for _, c := range subs {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// destroyAll destroys every collection in subs.
func destroyAll(subs []storage.Collection) error {
	for _, c := range subs {
		if err := c.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// destroySubs is the best-effort, nil-tolerant form of destroyAll used
// by error-path sweeps: partially-built slices hold nils and the
// original failure is the error worth reporting.
func destroySubs(subs []storage.Collection) {
	for _, c := range subs {
		if c != nil {
			c.Destroy() //nolint:errcheck // best-effort cleanup after failure
		}
	}
}

// destroyParts sweeps a [worker][partition] or [partition][worker]
// matrix of sub-collections, tolerating nil rows and cells.
func destroyParts(parts [][]storage.Collection) {
	for _, subs := range parts {
		destroySubs(subs)
	}
}

// lenAll is the total record count of subs.
func lenAll(subs []storage.Collection) int {
	n := 0
	for _, c := range subs {
		n += c.Len()
	}
	return n
}
