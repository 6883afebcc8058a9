package testkit

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlpm/internal/storage"
)

// The engine observes cancellation only through ctx.Err polls, so a
// context whose Err flips after a fixed number of calls cancels a run at
// a reproducible depth: a clean run under Counting says how many polls
// there are, and CancelAfter(n) lands the cancel at poll n.

// Counting is a context that never cancels and counts its Err polls.
type Counting struct {
	context.Context
	polls atomic.Int64
}

// NewCounting is a Counting context over parent.
func NewCounting(parent context.Context) *Counting { return &Counting{Context: parent} }

func (c *Counting) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// Polls is how many times Err has been called.
func (c *Counting) Polls() int64 { return c.polls.Load() }

// cancelAfter answers its first n Err polls from its parent and every
// later one with context.Canceled.
type cancelAfter struct {
	context.Context
	remaining atomic.Int64
}

// CancelAfter is a context over parent that reports context.Canceled
// from its (n+1)-th Err poll on.
func CancelAfter(parent context.Context, n int64) context.Context {
	c := &cancelAfter{Context: parent}
	c.remaining.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// WaitGoroutines fails t unless the goroutine count falls back to base
// within five seconds: whatever a run started must be gone once it has
// returned, failed or been cancelled.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, baseline %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ErrInjected is what the failing doubles return when they are given no
// error of their own.
var ErrInjected = errors.New("injected failure")

// FailAfter is a collection whose Append takes N records and refuses
// every later one with Err (ErrInjected if nil): a device that fills up
// mid-write, or a caller's output that stops taking rows.
type FailAfter struct {
	storage.Collection
	N   int
	Err error
}

func (f *FailAfter) Append(rec []byte) error {
	if f.N--; f.N < 0 {
		return orInjected(f.Err)
	}
	return f.Collection.Append(rec)
}

// FailScan is a collection each of whose scans serves N records, one at
// a time (the chunk form is hidden), and then fails with Err
// (ErrInjected if nil): a read error mid-scan.
type FailScan struct {
	storage.Collection
	N   int
	Err error
}

func (c *FailScan) Scan() storage.Iterator {
	return &failingIter{Iterator: c.Collection.Scan(), n: c.N, err: orInjected(c.Err)}
}

type failingIter struct {
	storage.Iterator
	n   int
	err error
}

func (it *failingIter) Next() ([]byte, error) {
	if it.n--; it.n < 0 {
		return nil, it.err
	}
	return it.Iterator.Next()
}

// FailingTemps is a factory whose temps named with Prefix (a temp name
// is "<namespace><prefix>.<seq>") fail: each is a FailAfter of N
// records, or with Reads a FailScan of N, failing with Err (ErrInjected
// if nil). Every other collection is the wrapped factory's own.
type FailingTemps struct {
	storage.Factory
	Prefix string
	N      int
	Err    error
	Reads  bool
	hits   atomic.Int64
}

func (f *FailingTemps) Create(name string, recSize int) (storage.Collection, error) {
	c, err := f.Factory.Create(name, recSize)
	if err != nil || !strings.Contains(name, "."+f.Prefix+".") {
		return c, err
	}
	f.hits.Add(1)
	if f.Reads {
		return &FailScan{Collection: c, N: f.N, Err: f.Err}, nil
	}
	return &FailAfter{Collection: c, N: f.N, Err: f.Err}, nil
}

// Hits is how many temps the factory made to fail.
func (f *FailingTemps) Hits() int { return int(f.hits.Load()) }

func orInjected(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}
