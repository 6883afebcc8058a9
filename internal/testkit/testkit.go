// Package testkit holds the doubles the engine's tests share, each
// written once: contexts that count or cancel their polls, collections
// and factories that fail on cue, a temp counter, a goroutine-leak wait,
// a deterministic key generator, and environments on devices sized to
// what a test holds. Only _test.go files import it (TestGuards holds
// that), so nothing here ships in a binary.
package testkit

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage"
	"wlpm/internal/storage/all"
)

// Factory opens a device by cfg and the named backend's collection
// factory on it. The device allocates and zeroes all of cfg.Capacity
// when it opens, so a test asks for what its data and temps take, not
// for a round large number: host time and memory grow with the
// capacity, whatever the test stores.
func Factory(t testing.TB, backend string, cfg pmem.Config) storage.Factory {
	t.Helper()
	f, err := all.New(backend, pmem.MustOpen(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Env is an algorithm environment over a fresh device of capacity bytes
// behind the named backend, with a memory budget of budgetRecords
// records.
func Env(t testing.TB, backend string, capacity int64, budgetRecords int) *algo.Env {
	t.Helper()
	return algo.NewEnv(Factory(t, backend, pmem.Config{Capacity: capacity}), int64(budgetRecords*record.Size))
}

// Temps is a factory that counts the collections it creates by the
// prefix their temp name carries (algo.Env.TempName's
// "<namespace><prefix>.<seq>"), so a test can say which temps a run
// made: runs, merge outputs, stored inputs.
type Temps struct {
	storage.Factory
	mu sync.Mutex
	n  map[string]int
}

// CountTemps counts the temps f creates.
func CountTemps(f storage.Factory) *Temps { return &Temps{Factory: f, n: map[string]int{}} }

func (c *Temps) Create(name string, recSize int) (storage.Collection, error) {
	prefix := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		prefix = name[:i]
		prefix = prefix[strings.LastIndexByte(prefix, '.')+1:]
	}
	c.mu.Lock()
	c.n[prefix]++
	c.mu.Unlock()
	return c.Factory.Create(name, recSize)
}

// N is how many temps were created under the given prefixes together.
func (c *Temps) N(prefixes ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range prefixes {
		n += c.n[p]
	}
	return n
}

// String renders the counts by prefix, for failure messages.
func (c *Temps) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprint(c.n)
}

// RNG is a deterministic xorshift64 generator: a seed gives the same
// keys on every run and at every parallelism, without math/rand.
type RNG struct{ s uint64 }

// NewRNG starts a generator at seed, which must not be zero.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Next is the generator's next 64-bit value.
func (r *RNG) Next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// Skewed draws a key of [0, n) that piles up quadratically near zero.
func (r *RNG) Skewed(n int) uint64 {
	v := r.Next() % uint64(n)
	return v * v / uint64(n)
}

// Dups draws one of 50 keys: a duplicate-heavy domain.
func (r *RNG) Dups() uint64 { return r.Next() % 50 }

// Scans counts, per collection, the scans opened on the collections it
// wraps and the scans pulled at least once (a Next or NextChunk, even
// one that finds the end), so a test can say that nothing was opened
// that was not read. Wrap a factory to count its temps' scans and a
// base table to count its own. Safe for the concurrent scans of
// parallel workers.
type Scans struct {
	mu             sync.Mutex
	opened, pulled map[string]int
}

// NewScans returns an empty scan count.
func NewScans() *Scans { return &Scans{opened: map[string]int{}, pulled: map[string]int{}} }

// Factory wraps f: every collection it creates counts its scans in s.
func (s *Scans) Factory(f storage.Factory) storage.Factory { return &scanFactory{Factory: f, s: s} }

// Collection wraps c so that its scans are counted in s. The wrapper
// unwraps to c (storage.Unwrapper), so range appends still reach it.
func (s *Scans) Collection(c storage.Collection) storage.Collection {
	return &scanned{Collection: c, s: s}
}

// Opened is how many scans were opened on all the collections together.
func (s *Scans) Opened() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range s.opened {
		n += k
	}
	return n
}

// Unpulled names each collection with a scan opened and never pulled,
// with its counts.
func (s *Scans) Unpulled() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, n := range s.opened {
		if p := s.pulled[name]; p != n {
			out = append(out, fmt.Sprintf("%s: %d opened, %d pulled", name, n, p))
		}
	}
	return out
}

func (s *Scans) count(m map[string]int, name string) {
	s.mu.Lock()
	m[name]++
	s.mu.Unlock()
}

type scanFactory struct {
	storage.Factory
	s *Scans
}

func (f *scanFactory) Create(name string, recSize int) (storage.Collection, error) {
	c, err := f.Factory.Create(name, recSize)
	if err != nil {
		return nil, err
	}
	return f.s.Collection(c), nil
}

type scanned struct {
	storage.Collection
	s *Scans
}

func (c *scanned) Scan() storage.Iterator { return c.wrap(c.Collection.Scan()) }

func (c *scanned) ScanFrom(start int) storage.Iterator { return c.wrap(c.Collection.ScanFrom(start)) }

func (c *scanned) Unwrap() storage.Collection { return c.Collection }

func (c *scanned) wrap(it storage.Iterator) storage.Iterator {
	name := c.Name()
	c.s.count(c.s.opened, name)
	return &scanIter{it: it, ci: storage.Chunked(it), pull: func() { c.s.count(c.s.pulled, name) }}
}

// scanIter is a counted scan, chunked like the one it wraps.
type scanIter struct {
	it   storage.Iterator
	ci   storage.ChunkIterator
	pull func() // counts the first pull; nil after
}

func (it *scanIter) pulled() {
	if it.pull != nil {
		it.pull()
		it.pull = nil
	}
}

func (it *scanIter) Next() ([]byte, error) {
	it.pulled()
	return it.it.Next()
}

func (it *scanIter) NextChunk(n int) ([][]byte, error) {
	it.pulled()
	return it.ci.NextChunk(n)
}

func (it *scanIter) Close() error { return it.it.Close() }
