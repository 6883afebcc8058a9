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
