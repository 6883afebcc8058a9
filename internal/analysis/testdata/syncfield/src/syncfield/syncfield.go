// Package syncfield exercises the field-synchronization contract:
// mixed guarded/bare access to mutex-protected struct fields, the
// *Locked naming convention, and the shapes that must stay silent —
// constructors, read-only fields, aliased fields, and synchronous
// call-argument closures.
package syncfield

import (
	"sort"
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) peek() int {
	return c.n // want "counter.n is guarded by counter.mu"
}

func (c *counter) reset() {
	c.n = 0 // want "counter.n is guarded by counter.mu"
}

// Constructors touch fields before the object is published.
func newCounter(n int) *counter {
	c := &counter{}
	c.n = n
	return c
}

// The *Locked suffix is the caller-holds-the-lock contract: accesses
// inside are guarded, calls without the mutex are flagged.
type depot struct {
	mu sync.Mutex
	v  int
}

func (d *depot) bumpLocked() {
	d.v++
}

func (d *depot) use() {
	d.mu.Lock()
	d.bumpLocked()
	d.v = 3
	d.mu.Unlock()
}

func (d *depot) badCall() {
	d.bumpLocked() // want "call to depot.bumpLocked without holding depot.mu"
}

// Read-only after construction: mixed reads, no write, no race.
type tagged struct {
	mu   sync.Mutex
	name string
	seen int
}

func newTagged(name string) *tagged {
	t := &tagged{}
	t.name = name
	return t
}

func (t *tagged) get() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	return t.name
}

func (t *tagged) label() string {
	return t.name
}

// A field that escapes by address leaves the mutex discipline; atomics
// are their own synchronization.
type mixedsync struct {
	mu   sync.Mutex
	hits int64
	tick atomic.Int64
}

func (m *mixedsync) locked() {
	m.mu.Lock()
	m.hits++
	m.mu.Unlock()
}

func (m *mixedsync) lockless() {
	atomic.AddInt64(&m.hits, 1)
	m.tick.Add(1)
}

// Call-argument closures run within the caller's dynamic extent and
// inherit its locks (the sort.Search comparator pattern).
type arena struct {
	mu   sync.Mutex
	free []int
}

func (a *arena) insert(x int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i] >= x })
	a.free = append(a.free, 0)
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = x
}

func (a *arena) drop() {
	a.mu.Lock()
	a.free = a.free[:0]
	a.mu.Unlock()
}

// A reasoned allow silences the bare site.
type quota struct {
	mu   sync.Mutex
	left int
}

func (q *quota) take() {
	q.mu.Lock()
	q.left--
	q.mu.Unlock()
}

func (q *quota) estimate() int {
	//lint:allow wlvet/syncfield fixture: racy read is documented as an estimate, staleness is acceptable
	return q.left
}

// A map written only through index assignments and delete is written
// all the same: a bare read of it races with the guarded writers.
type registry struct {
	mu    sync.Mutex
	byKey map[string]int
	gone  map[string]bool
}

func (r *registry) put(k string, v int) {
	r.mu.Lock()
	r.byKey[k] = v
	r.mu.Unlock()
}

func (r *registry) get(k string) int {
	return r.byKey[k] // want "registry.byKey is guarded by registry.mu"
}

func (r *registry) forget(k string) {
	r.mu.Lock()
	delete(r.gone, k)
	r.mu.Unlock()
}

func (r *registry) wasForgotten(k string) bool {
	return r.gone[k] // want "registry.gone is guarded by registry.mu"
}
