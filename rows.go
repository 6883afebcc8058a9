package wlpm

import (
	"context"
	"fmt"
	"io"
	"sync"

	"wlpm/internal/broker"
	"wlpm/internal/exec"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Rows is a streaming query result in the database/sql style: records
// are pulled incrementally from the compiled plan's Volcano iterators
// instead of being materialized into a caller collection. Blocking
// stages (sorts, joins, aggregations) still do their work when the
// cursor opens; the final stream above them never touches the device.
//
// A Rows holds its session's memory grant until Close. Always Close the
// cursor (defer is fine): Close tears the operator tree down, destroys
// any temporaries an aborted run left behind and releases the grant. If
// the cursor's context is cancelled the grant is released immediately —
// even before Close — so a stuck consumer cannot pin the broker's
// budget.
//
// Rows is safe for use by one goroutine at a time.
type Rows struct {
	mu     sync.Mutex
	ctx    context.Context
	ec     *exec.Ctx
	root   exec.Operator
	cur    *storage.Cursor // record-level view over the root's stream
	ex     *QueryExplain
	grant  *broker.Grant
	stop   func() bool // cancels the context watcher
	rec    []byte
	err    error
	done   bool
	closed bool
}

// Rows compiles the plan — the cost model prices it at the session's
// broker grant — executes its blocking stages, and returns a cursor over
// the result stream. The grant is acquired under the session's admission
// policy first; a cancelled ctx aborts both the wait for memory and the
// execution itself.
func (q *Query) Rows(ctx context.Context) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := q.sess.acquire(ctx)
	if err != nil {
		return nil, err
	}
	r, err := q.openRows(ctx, g.Bytes(), g, exec.CompileOptions{})
	if err != nil {
		g.Release()
		return nil, err
	}
	return r, nil
}

// openRows compiles and opens the plan, returning a live cursor. The
// caller releases the grant if an error comes back.
func (q *Query) openRows(ctx context.Context, budget int64, grant *broker.Grant, opts exec.CompileOptions) (*Rows, error) {
	root, ex, ec, err := q.compile(budget, opts)
	if err != nil {
		return nil, err
	}
	if err := ec.Bind(ctx); err != nil {
		return nil, err
	}
	it, err := root.Open(ctx, ec)
	if err != nil {
		root.Close()    //nolint:errcheck // best-effort cleanup after failure
		ec.SweepTemps() //nolint:errcheck // best-effort cleanup after failure
		return nil, err
	}
	ex.Rerender() // every blocking stage has opened, and may have re-planned
	r := &Rows{ctx: ctx, ec: ec, root: root, cur: storage.NewCursor(it, ec.PullSize()), ex: ex, grant: grant}
	if grant != nil {
		// Release the memory grant the moment the context dies, whether or
		// not the consumer gets around to Close (Release is idempotent).
		r.stop = context.AfterFunc(ctx, grant.Release)
	}
	return r, nil
}

// Next advances to the next record, reporting false at the end of the
// stream, on error, or once the cursor's context is cancelled. Err
// distinguishes the three.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.done || r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return false
	}
	// The mutex serializes Next/Scan/Close against each other, and the
	// cursor advance is the call's whole purpose — no other goroutine
	// legitimately contends while a fetch is in flight, and cancellation
	// cuts a blocked fetch loose via r.ctx, which Close does not need
	// r.mu to cancel.
	rec, err := r.cur.Next()
	if err == io.EOF {
		r.done = true
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	r.rec = append(r.rec[:0], rec...)
	return true
}

// Scan copies the current record into dsts. Each destination is either a
// *uint64 receiving the next 8-byte attribute in order, or a single
// *[]byte receiving a copy of the whole record. Next must have returned
// true.
func (r *Rows) Scan(dsts ...any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("wlpm: Scan on closed Rows")
	}
	if len(r.rec) == 0 {
		return fmt.Errorf("wlpm: Scan called without a successful Next")
	}
	if len(dsts) == 1 {
		if p, ok := dsts[0].(*[]byte); ok {
			*p = append((*p)[:0], r.rec...)
			return nil
		}
	}
	if len(dsts)*record.AttrSize > len(r.rec) {
		return fmt.Errorf("wlpm: Scan of %d attributes from a %d-byte record", len(dsts), len(r.rec))
	}
	for i, d := range dsts {
		p, ok := d.(*uint64)
		if !ok {
			return fmt.Errorf("wlpm: Scan destination %d is %T, want *uint64 or a single *[]byte", i, d)
		}
		*p = record.Attr(r.rec, i)
	}
	return nil
}

// Record returns the current record. The slice is owned by the cursor
// and only valid until the next call to Next; copy to retain.
func (r *Rows) Record() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// RecordSize is the byte width of the cursor's records.
func (r *Rows) RecordSize() int { return r.root.RecordSize() }

// Explain describes the compiled physical plan; after the stream has
// been consumed its choices also carry the actuals observed at run time.
func (r *Rows) Explain() *QueryExplain { return r.ex }

// Err returns the error that terminated the stream, if any (nil after a
// complete, uncancelled iteration).
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close tears down the operator tree, destroys any temporaries the run
// left behind (none after a clean run; spills and partitions after an
// abort) and releases the session's memory grant. Idempotent.
func (r *Rows) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.stop != nil {
		r.stop()
	}
	err := r.root.Close()
	if serr := r.ec.SweepTemps(); err == nil {
		err = serr
	}
	r.grant.Release()
	return err
}
