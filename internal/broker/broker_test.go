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

// TestBrokerCancelledHeadUnblocksNext: a cancelled head that was
// blocking the queue hands admission on at once, instead of stranding a
// request that fits until the next release.
func TestBrokerCancelledHeadUnblocksNext(t *testing.T) {
	b := mustNew(t, 100)
	g, err := b.Acquire(context.Background(), 60, Block)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx, cancel := context.WithCancel(context.Background())
	bigErr := make(chan error, 1)
	go func() {
		_, err := b.Acquire(ctx, 80, Block)
		bigErr <- err
	}()
	waitWaiting(t, b, 1)
	admitted := make(chan *Grant, 1)
	go func() {
		g2, err := b.Acquire(context.Background(), 30, Block)
		if err != nil {
			t.Error(err)
		}
		admitted <- g2
	}()
	waitWaiting(t, b, 2)

	cancel()
	if err := <-bigErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head returned %v", err)
	}
	select {
	case g2 := <-admitted:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatalf("30 B request still queued with %d B free after the head's cancel", b.Total()-b.InUse())
	}
}

// TestBrokerWeightedOrder pins the stride schedule: with tenant b at
// weight 2 and tenant a at weight 1, a fully backlogged one-grant broker
// admits b twice per a admission.
func TestBrokerWeightedOrder(t *testing.T) {
	b := mustNew(t, 1)
	// Hold the only grant so every later request queues.
	g, err := b.AcquireAs(context.Background(), "x", 1, 1, Block)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(tenant string, weight, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := b.AcquireAs(context.Background(), tenant, weight, 1, Block)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				g.Release()
			}()
			// Serialize arrivals so per-tenant FIFO positions are fixed.
			waitWaiting(t, b, 1+i+map[string]int{"a": 0, "b": 4}[tenant])
		}
	}
	enqueue("a", 1, 4)
	enqueue("b", 2, 4)
	waitWaiting(t, b, 8)

	g.Release() // release the holder; the cascade drains the queue
	wg.Wait()

	want := []string{"a", "b", "b", "a", "b", "b", "a", "a"}
	if len(order) != len(want) {
		t.Fatalf("admitted %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
	if d := b.Waiting(); d != 0 {
		t.Fatalf("waiting %d after drain, want 0", d)
	}
}

// TestBrokerCancelKeepsSchedule removes a cancelled waiter without
// disturbing the schedule.
func TestBrokerCancelKeepsSchedule(t *testing.T) {
	b := mustNew(t, 1)
	g, err := b.AcquireAs(context.Background(), "x", 1, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.AcquireAs(ctx, "a", 1, 1, Block)
		errc <- err
	}()
	waitWaiting(t, b, 1)

	admitted := make(chan *Grant, 1)
	go func() {
		g, err := b.AcquireAs(context.Background(), "b", 1, 1, Block)
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- g
	}()
	waitWaiting(t, b, 2)

	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	if d := b.Waiting(); d != 1 {
		t.Fatalf("waiting %d after cancel, want 1", d)
	}
	if q := b.Queues(); q["a"].Waiting != 0 || q["b"].Waiting != 1 {
		t.Fatalf("queues %v, want only b:1", q)
	}

	g.Release()
	select {
	case g := <-admitted:
		g.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("b never admitted after cancel + release")
	}
	if d := b.Waiting(); d != 0 {
		t.Fatalf("waiting %d, want 0", d)
	}
}

// TestBrokerIdleTenantBanksNoCredit pins virtual-time catch-up: a
// tenant idle through many admissions does not bank credit to burst
// with.
func TestBrokerIdleTenantBanksNoCredit(t *testing.T) {
	b := mustNew(t, 1)
	// Advance virtual time with a lone tenant.
	for i := 0; i < 100; i++ {
		g, err := b.AcquireAs(context.Background(), "a", 1, 1, Block)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	// Hold the grant, backlog one a and two late-arriving b.
	g, err := b.AcquireAs(context.Background(), "a", 1, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	spawn := func(tenant string, after int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := b.AcquireAs(context.Background(), tenant, 1, 1, Block)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			g.Release()
		}()
		waitWaiting(t, b, after)
	}
	spawn("a", 1)
	spawn("b", 2)
	spawn("b", 3)
	g.Release()
	wg.Wait()
	// b starts at the current virtual time, not at 0: it alternates with
	// a instead of burning its "saved up" 100 admissions first.
	if order[0] != "a" && order[1] != "a" {
		t.Fatalf("admission order %v: the idle tenant burst past the active one", order)
	}
	if q := b.Queues()["b"]; q.Waiting != 0 || q.Waited <= 0 {
		t.Fatalf("b's queue %+v after drain, want none waiting and some time waited", q)
	}
}

func waitWaiting(t *testing.T, b *Broker, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Waiting() < want {
		if time.Now().After(deadline) {
			t.Fatalf("waiting stuck at %d, want %d", b.Waiting(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
