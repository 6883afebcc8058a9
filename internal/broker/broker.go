// Package broker is the System-wide memory broker: it owns the one DRAM
// budget the paper's cost model rations (working memory M for heaps,
// hash tables and merge buffers) and admits concurrent queries against
// it. Each query requests a grant before it is planned — the physical
// planner then prices the plan at the granted budget, not at a caller
// constant — and releases the grant when its cursor closes or its
// context is cancelled, so K concurrent sessions can never oversubscribe
// the device host's memory the way K private fixed budgets would.
//
// Admission is FIFO: a request that does not fit waits behind earlier
// waiters (no starvation of large requests behind a stream of small
// ones) and is woken as releases free memory. Blocking requests honour
// context cancellation; fail-fast requests return ErrAdmission
// immediately when the memory is not free.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Policy selects the admission behaviour of Acquire when the requested
// grant does not currently fit the free budget.
type Policy int

const (
	// Block queues the request FIFO and waits for releases (or context
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
	waiters   []*waiter // FIFO admission queue
}

type waiter struct {
	bytes int64
	ready chan struct{} // closed by releaseLocked with the grant charged
}

// New returns a broker over a total budget in bytes.
func New(total int64) (*Broker, error) {
	if total <= 0 {
		return nil, fmt.Errorf("broker: total memory budget must be positive, got %d", total)
	}
	return &Broker{total: total}, nil
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
	return len(b.waiters)
}

// Acquire requests a grant of bytes. A request larger than the total
// budget can never be admitted and fails under either policy; ctx
// cancellation aborts a blocked request. The returned grant must be
// released exactly once (Release is idempotent, so "at least once" is
// safe).
func (b *Broker) Acquire(ctx context.Context, bytes int64, p Policy) (*Grant, error) {
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
	// Admit immediately only when nothing is queued ahead (FIFO).
	if len(b.waiters) == 0 && bytes <= b.total-b.used {
		b.chargeLocked(bytes)
		b.mu.Unlock()
		return &Grant{b: b, bytes: bytes}, nil
	}
	if p == FailFast {
		used := b.used
		b.mu.Unlock()
		return nil, fmt.Errorf("%w (requested %d B, %d B of %d B in use)", ErrAdmission, bytes, used, b.total)
	}
	w := &waiter{bytes: bytes, ready: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()

	select {
	case <-w.ready:
		return &Grant{b: b, bytes: bytes}, nil
	case <-ctx.Done():
		b.mu.Lock()
		// Lost race: releaseLocked may have admitted w between Done and
		// the lock.
		select {
		case <-w.ready:
			b.releaseLocked(bytes)
			b.mu.Unlock()
			return nil, ctx.Err()
		default:
		}
		for i, q := range b.waiters {
			if q == w {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		return nil, ctx.Err()
	}
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

// releaseLocked returns bytes to the budget and admits queued waiters,
// in order, while the head's request fits: a small request never
// overtakes a large one queued ahead of it. It calls nothing outside this
// package. The Locked suffix is the caller-holds-b.mu contract,
// machine-checked by wlvet/syncfield at every call site.
func (b *Broker) releaseLocked(bytes int64) {
	b.used -= bytes
	for len(b.waiters) > 0 && b.waiters[0].bytes <= b.total-b.used {
		w := b.waiters[0]
		b.chargeLocked(w.bytes)
		b.waiters = b.waiters[1:]
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
