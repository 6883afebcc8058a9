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
//   - building: the join's one hash table is refilled for each partition
//     by workers over contiguous chunks of the build stream, each filling
//     its own record vector; an order-restoring merge concatenates the
//     vectors in worker order and indexes the result in one pass,
//     reconstituting the exact serial insertion order (which determines
//     per-key match order) before any probe runs.
//   - probing: the table is probed by several workers over contiguous
//     chunks of the probe stream. Matches are staged as left‖right
//     records in small per-worker DRAM buffers and handed to the
//     emitter's match function through a turnstile in chunk order, so the
//     output sequence equals the serial one for every parallelism level.
//
// The table, the per-worker build vectors and the staging buffers are
// the join's working set (workingSet): allocated once per Join and
// reset, not reallocated, for every partition, re-scan and block.
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

// stage returns the staging vectors of probe workers 0..n−1, emptied. The
// emitter keeps one per worker slot for the whole join, each allocated
// once at orderedOutputCap: a worker flushes before its vector would
// grow. Slots are added here, before the workers start, never from
// inside one.
func (e *emitter) stage(n int) []*record.Vec {
	for len(e.staged) < n {
		e.staged = append(e.staged, record.NewVec(e.lsize+e.rsize, e.stageRecords()))
	}
	for _, v := range e.staged[:n] {
		v.Reset()
	}
	return e.staged[:n]
}

// stageRecords is a staging vector's capacity in left‖right records.
func (e *emitter) stageRecords() int { return max(orderedOutputCap/(e.lsize+e.rsize), 1) }

// orderedEmit is one probe worker's view of the shared emitter: matches
// are staged in DRAM as left‖right records until the worker's turn in
// the output order arrives, then split at the left width and handed to
// the emitter's match function, and later matches go to it directly.
type orderedEmit struct {
	em        *emitter
	ts        *algo.Turnstile
	i         int
	buf       *record.Vec
	bufCap    int
	turnTaken bool
	done      bool
}

func (o *orderedEmit) emit(left, right []byte) error {
	if o.turnTaken {
		return o.em.match(left, right)
	}
	o.buf.AppendJoined(left, right)
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
		rec := o.buf.At(j)
		if err := o.em.match(rec[:o.em.lsize], rec[o.em.lsize:]); err != nil {
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
// the working set's table, emitting matches through its emitter exactly
// as the serial algorithm would: stream-major, then probe-record-major,
// then build-insertion order. Stream i is handled by worker i; records
// failing filter (when non-nil) are skipped. Each worker's scan polls
// env's cancellation (Env.Scan), so a cancelled join stops mid-probe.
func parallelProbe(env *algo.Env, ws *workingSet, srcs []storage.Collection, filter func(rec []byte) bool) error {
	table, em := ws.table, ws.em
	probeOne := func(src storage.Collection, emit func(l, r []byte) error) error {
		return env.Scan(src, func(r []byte) error {
			if filter != nil && !filter(r) {
				return nil
			}
			return table.probe(record.Key(r), func(l []byte) error {
				return emit(l, r)
			})
		})
	}
	if len(srcs) == 0 {
		return nil
	}
	if len(srcs) == 1 {
		return probeOne(srcs[0], em.match)
	}
	bufs, bufCap := em.stage(len(srcs)), em.stageRecords()
	ts := algo.NewTurnstile(len(srcs))
	return env.RunWorkers(len(srcs), func(i int) error {
		oe := &orderedEmit{em: em, ts: ts, i: i, buf: bufs[i], bufCap: bufCap}
		defer oe.release()
		if err := probeOne(srcs[i], oe.emit); err != nil {
			return err
		}
		return oe.finish()
	})
}

// probeRange probes src against the working set's table with
// env.Parallelism workers over contiguous record ranges; emission order
// equals a serial scan of src.
func probeRange(env *algo.Env, ws *workingSet, src storage.Collection, filter func(rec []byte) bool) error {
	w := env.Workers(src.Len())
	if w <= 1 {
		return parallelProbe(env, ws, []storage.Collection{src}, filter)
	}
	srcs := make([]storage.Collection, w)
	for i := range srcs {
		lo, hi := algo.SplitRange(src.Len(), w, i)
		srcs[i] = storage.Slice(src, lo, hi)
	}
	return parallelProbe(env, ws, srcs, filter)
}

// BuildPhase names the hash-table build passes of the partitioned joins
// in the environment's phase recorder. The phase is read-only on the
// device: its cacheline write count is zero at every parallelism level.
const BuildPhase = "build"

// buildTableParallel resets the working set's table and fills it with
// the concatenated record stream of subs, skipping records that fail
// filter (when non-nil). Under env.Parallelism > 1 the stream is split
// into contiguous chunks and each worker fills its own record vector —
// the device-read-bound half of the build, which is what overlapping
// workers speed up. An order-restoring merge then concatenates the
// vectors in worker order and indexes the merged vector in one DRAM
// pass (hashTable.link), so the vector and every per-key list are
// exactly what the serial scan would have produced and per-key match
// order (and with it the join's output byte stream) is unchanged.
// Keeping the workers free of index work means the parallel build does
// no more total CPU than the serial one — the index is built exactly
// once either way. The per-worker vectors belong to the working set like
// the table: reset per build, they grow to the most records a worker's
// chunk has passed the filter with and keep that capacity for the
// join's later builds.
func buildTableParallel(env *algo.Env, ws *workingSet, subs []storage.Collection, filter func(rec []byte) bool) error {
	return env.TimePhase(BuildPhase, func() error {
		table := ws.table
		table.reset()
		n := lenAll(subs)
		w := env.Workers(n)
		// scan walks records [lo, hi) of subs, end to end, into fn.
		scan := func(lo, hi int, fn func(rec []byte) error) error {
			base := 0
			for _, c := range subs {
				sub := storage.Slice(c, lo-base, hi-base) // clamped to c
				base += c.Len()
				if sub.Len() == 0 {
					continue
				}
				if err := env.Scan(sub, fn); err != nil {
					return err
				}
			}
			return nil
		}
		if w <= 1 {
			return scan(0, n, func(rec []byte) error {
				if filter == nil || filter(rec) {
					table.insert(rec)
				}
				return nil
			})
		}
		parts := ws.buildParts(w)
		err := env.RunWorkers(w, func(i int) error {
			lo, hi := algo.SplitRange(n, w, i)
			part := parts[i]
			return scan(lo, hi, func(rec []byte) error {
				if filter == nil || filter(rec) {
					part.Append(rec)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		for _, part := range parts {
			table.vec.AppendVec(part)
		}
		for pos := 0; pos < table.vec.Len(); pos++ {
			table.link(record.Key(table.vec.At(pos)))
		}
		return nil
	})
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
