package broker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustNew(t *testing.T, total int64) *Broker {
	t.Helper()
	b, err := New(total)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(-5); err == nil {
		t.Fatal("New(-5) succeeded")
	}
}

func TestAcquireRelease(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 60, Block)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 60 {
		t.Fatalf("InUse = %d, want 60", got)
	}
	g2, err := b.Acquire(context.Background(), 40, FailFast)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 100 {
		t.Fatalf("InUse = %d, want 100", got)
	}
	g.Release()
	g.Release() // idempotent
	g2.Release()
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}
	if hw := b.HighWater(); hw != 100 {
		t.Fatalf("HighWater = %d, want 100", hw)
	}
}

func TestFailFast(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 80, Block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Acquire(context.Background(), 30, FailFast); !errors.Is(err, ErrAdmission) {
		t.Fatalf("FailFast over budget: err = %v, want ErrAdmission", err)
	}
	g.Release()
	if _, err := b.Acquire(context.Background(), 30, FailFast); err != nil {
		t.Fatalf("FailFast under budget: %v", err)
	}
}

func TestRequestLargerThanTotal(t *testing.T) {
	b := mustNew(t, 100)
	if _, err := b.Acquire(context.Background(), 101, Block); err == nil {
		t.Fatal("oversized request admitted")
	}
	if _, err := b.Acquire(context.Background(), 0, Block); err == nil {
		t.Fatal("zero request admitted")
	}
}

func TestBlockWaitsForRelease(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 100, Block)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *Grant)
	go func() {
		g2, err := b.Acquire(context.Background(), 50, Block)
		if err != nil {
			t.Error(err)
		}
		admitted <- g2
	}()
	select {
	case <-admitted:
		t.Fatal("blocked request admitted while budget full")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release()
	select {
	case g2 := <-admitted:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("blocked request not admitted after release")
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
	if hw := b.HighWater(); hw > 100 {
		t.Fatalf("HighWater = %d exceeds total", hw)
	}
}

func TestBlockedAcquireHonorsCancellation(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 100, Block)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, err := b.Acquire(ctx, 10, Block)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
	if w := b.Waiting(); w != 0 {
		t.Fatalf("Waiting = %d after cancellation, want 0", w)
	}
	g.Release()
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestFIFONoStarvation: a large request queued behind a stream of small
// ones is admitted in arrival order, not starved.
func TestFIFONoStarvation(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 90, Block)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // queued first: needs 80
		defer wg.Done()
		gBig, err := b.Acquire(context.Background(), 80, Block)
		if err != nil {
			t.Error(err)
			return
		}
		order <- "big"
		gBig.Release()
	}()
	time.Sleep(10 * time.Millisecond) // establish queue order
	go func() {                       // queued second: cannot fit next to big, so it observes big's admission
		defer wg.Done()
		gSmall, err := b.Acquire(context.Background(), 30, Block)
		if err != nil {
			t.Error(err)
			return
		}
		order <- "small"
		gSmall.Release()
	}()
	time.Sleep(10 * time.Millisecond)
	g.Release()
	wg.Wait()
	if first := <-order; first != "big" {
		t.Fatalf("first admitted = %q, want \"big\" (FIFO)", first)
	}
	if hw := b.HighWater(); hw > 100 {
		t.Fatalf("HighWater = %d exceeds total", hw)
	}
}

// TestConcurrentChurn hammers the broker with concurrent acquire/release
// cycles and asserts accounting invariants (run with -race).
func TestConcurrentChurn(t *testing.T) {
	b := mustNew(t, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := b.Acquire(context.Background(), int64(8+w), Block)
				if err != nil {
					t.Error(err)
					return
				}
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d after churn, want 0", got)
	}
	if hw := b.HighWater(); hw > 64 {
		t.Fatalf("HighWater = %d exceeds total 64", hw)
	}
}
