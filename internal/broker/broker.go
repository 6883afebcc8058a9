// Package broker is the System-wide memory broker: it owns the one DRAM
// budget the paper's cost model rations (working memory M for heaps,
// hash tables and merge buffers) and admits concurrent queries against
// it. Each query requests a grant before it is planned — the physical
// planner then prices the plan at the granted budget, not at a caller
// constant — and releases the grant when its cursor closes or its
// context is cancelled, so K concurrent sessions can never oversubscribe
// the device host's memory the way K private fixed budgets would.
//
// Admission is one queue, weighted-fair across tenants and FIFO within
// each: every admission advances its tenant's pass by 1/weight, and the
// backlogged tenant with the least pass (ties broken by name) goes next,
// so a tenant's burst interleaves with, instead of walling off, every
// other tenant's traffic. A head that does not fit is never overtaken (no
// starvation of large requests behind a stream of small ones); it is
// admitted as releases free memory. Blocking requests honour context
// cancellation; fail-fast requests return ErrAdmission immediately when
// the memory is not free.
package broker

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Policy selects the admission behaviour of Acquire when the requested
// grant does not currently fit the free budget.
type Policy int

const (
	// Block queues the request and waits for releases (or context
	// cancellation).
	Block Policy = iota
	// FailFast returns ErrAdmission instead of waiting.
	FailFast
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case FailFast:
		return "fail-fast"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrAdmission is returned by fail-fast acquisition when the requested
// memory is not free.
var ErrAdmission = errors.New("broker: memory budget exhausted")

// Broker arbitrates one total memory budget among concurrent grants.
// Safe for concurrent use.
type Broker struct {
	total int64

	mu        sync.Mutex
	used      int64
	highWater int64
	waiting   int     // queued requests, every tenant's
	vtime     float64 // the pass of the latest admission
	tenants   map[string]*tenant
}

// tenant is one tenant's admission state: its pass in the schedule and
// its FIFO of waiting requests.
type tenant struct {
	name   string
	pass   float64
	queue  []*waiter
	waited time.Duration // total time its requests spent queued
}

type waiter struct {
	bytes  int64
	weight int
	since  time.Time
	ready  chan struct{} // closed by admitWaitersLocked with the grant charged
}

// New returns a broker over a total budget in bytes.
func New(total int64) (*Broker, error) {
	if total <= 0 {
		return nil, fmt.Errorf("broker: total memory budget must be positive, got %d", total)
	}
	return &Broker{total: total, tenants: make(map[string]*tenant)}, nil
}

// Total is the System-wide budget the broker rations.
func (b *Broker) Total() int64 { return b.total }

// InUse is the sum of the outstanding grants.
func (b *Broker) InUse() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// HighWater is the largest InUse ever observed — the oversubscription
// check concurrent-session tests assert against Total.
func (b *Broker) HighWater() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.highWater
}

// Waiting reports the number of queued admission requests.
func (b *Broker) Waiting() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiting
}

// Queue is one tenant's admission queue as Queues reports it.
type Queue struct {
	Waiting int           // requests queued now
	Waited  time.Duration // total time its requests have spent queued
}

// Queues reports every tenant's admission queue, by tenant name.
func (b *Broker) Queues() map[string]Queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]Queue, len(b.tenants))
	for name, t := range b.tenants {
		out[name] = Queue{Waiting: len(t.queue), Waited: t.waited}
	}
	return out
}

// Acquire requests a grant of bytes for the anonymous tenant at weight
// 1; see AcquireAs.
func (b *Broker) Acquire(ctx context.Context, bytes int64, p Policy) (*Grant, error) {
	return b.AcquireAs(ctx, "", 1, bytes, p)
}

// AcquireAs requests a grant of bytes for the tenant named tenantName,
// scheduled at weight (below 1 counts as 1). A request larger than the
// total budget can never be admitted and fails under either policy; ctx
// cancellation aborts a blocked request. The returned grant must be
// released exactly once (Release is idempotent, so "at least once" is
// safe).
func (b *Broker) AcquireAs(ctx context.Context, tenantName string, weight int, bytes int64, p Policy) (*Grant, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("broker: grant request must be positive, got %d", bytes)
	}
	if bytes > b.total {
		return nil, fmt.Errorf("broker: grant request %d B exceeds the system budget %d B", bytes, b.total)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	t := b.tenants[tenantName]
	if t == nil {
		t = &tenant{name: tenantName}
		b.tenants[tenantName] = t
	}
	// Admit immediately only when nothing is queued ahead.
	if b.waiting == 0 && bytes <= b.total-b.used {
		b.admitLocked(t, weight, bytes)
		b.mu.Unlock()
		return &Grant{b: b, bytes: bytes}, nil
	}
	if p == FailFast {
		used := b.used
		b.mu.Unlock()
		return nil, fmt.Errorf("%w (requested %d B, %d B of %d B in use)", ErrAdmission, bytes, used, b.total)
	}
	// A newly backlogged tenant starts at the current virtual time:
	// idling must not bank credit it can later burst through.
	if len(t.queue) == 0 {
		t.pass = max(t.pass, b.vtime)
	}
	w := &waiter{bytes: bytes, weight: weight, since: time.Now(), ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	b.waiting++
	b.mu.Unlock()

	select {
	case <-w.ready:
		return &Grant{b: b, bytes: bytes}, nil
	case <-ctx.Done():
		b.mu.Lock()
		// Lost race: admitWaitersLocked may have admitted w between Done
		// and the lock. Its turn stays spent.
		select {
		case <-w.ready:
			b.releaseLocked(bytes)
			b.mu.Unlock()
			return nil, ctx.Err()
		default:
		}
		t.queue = slices.DeleteFunc(t.queue, func(q *waiter) bool { return q == w })
		b.waiting--
		t.waited += time.Since(w.since)
		// w may have been the head that blocked everyone behind it.
		b.admitWaitersLocked()
		b.mu.Unlock()
		return nil, ctx.Err()
	}
}

// admitLocked charges one admission of bytes to tenant t: t's pass
// advances by 1/weight from no earlier than the current virtual time.
func (b *Broker) admitLocked(t *tenant, weight int, bytes int64) {
	t.pass = max(t.pass, b.vtime)
	b.vtime = t.pass
	t.pass += 1 / float64(max(weight, 1))
	b.chargeLocked(bytes)
}

// chargeLocked books bytes against the budget. The Locked suffix is the
// engine's caller-holds-b.mu contract, machine-checked by
// wlvet/syncfield at every call site.
func (b *Broker) chargeLocked(bytes int64) {
	b.used += bytes
	if b.used > b.highWater {
		b.highWater = b.used
	}
}

// releaseLocked returns bytes to the budget and admits queued waiters.
// The Locked suffix is the caller-holds-b.mu contract, machine-checked by
// wlvet/syncfield at every call site.
func (b *Broker) releaseLocked(bytes int64) {
	b.used -= bytes
	b.admitWaitersLocked()
}

// admitWaitersLocked admits queued waiters while the schedule's next one
// fits: the head of the backlogged tenant with the least pass, ties
// broken by name. A head that does not fit blocks everyone behind it, so
// a small request never overtakes a large one scheduled ahead of it. It
// calls nothing outside this package but the clock.
func (b *Broker) admitWaitersLocked() {
	for b.waiting > 0 {
		var next *tenant
		for _, t := range b.tenants {
			if len(t.queue) > 0 && (next == nil || t.pass < next.pass || t.pass == next.pass && t.name < next.name) {
				next = t
			}
		}
		w := next.queue[0]
		if w.bytes > b.total-b.used {
			return
		}
		next.queue[0] = nil
		next.queue = next.queue[1:]
		b.waiting--
		next.waited += time.Since(w.since)
		b.admitLocked(next, w.weight, w.bytes)
		close(w.ready)
	}
}

// Grant is one admitted share of the broker's budget.
type Grant struct {
	b     *Broker
	bytes int64

	mu       sync.Mutex
	released bool
}

// Bytes is the granted budget — the M the physical planner prices the
// query's plan at.
func (g *Grant) Bytes() int64 { return g.bytes }

// Release returns the grant to the broker. Idempotent: cursors release
// on Close and again on context cancellation without double-crediting.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	g.b.mu.Lock()
	g.b.releaseLocked(g.bytes)
	g.b.mu.Unlock()
}
