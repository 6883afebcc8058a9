package wlpm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"wlpm/internal/testkit"
)

// --- helpers ---

func newTestSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	sys, err := New(append([]Option{WithCapacity(32 << 20)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// loadStarTables loads the pipeline workload's inputs: two dimension
// tables over one key domain and a fact table with matches per key.
func loadStarTables(t testing.TB, sys *System, nDim, nFact int, tag string) (dim1, dim2, fact Collection) {
	t.Helper()
	create := func(name string) Collection {
		c, err := sys.Create(name + tag)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dim1, fact = create("dim1"), create("fact")
	if err := GenerateJoinInputs(nDim, nFact, 7, dim1.Append, fact.Append); err != nil {
		t.Fatal(err)
	}
	dim2 = create("dim2")
	if err := GenerateRecords(nDim, 13, dim2.Append); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Collection{dim1, dim2, fact} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dim1, dim2, fact
}

// starQuery is the pipeline workload of the bench harness: a 3-table
// star join projected back to the benchmark schema, grouped and ordered.
// Algorithms are pinned so concurrent and serial runs are bit-for-bit
// comparable regardless of planner statistics.
func starQuery(sess *Session, dim1, dim2, fact Collection) *Query {
	inner := sess.Query(dim1).JoinWith(sess.Query(fact), GraceJoin())
	star := sess.Query(dim2).JoinWith(inner, GraceJoin())
	return star.Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).
		GroupByWith(3, ExternalMergeSort()).
		OrderByWith(ExternalMergeSort())
}

func collectRows(t testing.TB, rows *Rows) []byte {
	t.Helper()
	var buf bytes.Buffer
	for rows.Next() {
		buf.Write(rows.Record())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// --- acceptance: concurrent sessions under one budget ---

// TestConcurrentSessionsRespectBudget is the PR's acceptance scenario:
// two sessions run the pipeline workload concurrently on one System,
// the broker's high-water mark never exceeds the System-wide budget,
// and every concurrent result is byte-identical to a serial run.
func TestConcurrentSessionsRespectBudget(t *testing.T) {
	const nDim, nFact, iters = 120, 1200, 3
	perQuery := int64(nFact * RecordSize / 20)
	sys := newTestSystem(t, WithMemoryBudget(2*perQuery))
	dim1, dim2, fact := loadStarTables(t, sys, nDim, nFact, "")

	// Serial reference.
	ref := collectRows(t, mustRows(t, starQuery(sys.Session(WithSessionBudget(perQuery)), dim1, dim2, fact)))
	if len(ref) == 0 {
		t.Fatal("empty reference result")
	}

	// Both sessions hold their first cursor open at the same time (the
	// barrier guarantees real overlap), so the broker's high-water mark
	// deterministically reaches the two-grant level.
	var openBarrier sync.WaitGroup
	openBarrier.Add(2)
	var wg sync.WaitGroup
	errs := make(chan error, 2*iters)
	for s := 0; s < 2; s++ {
		sess := sys.Session(WithSessionBudget(perQuery))
		wg.Add(1)
		go func(sess *Session, s int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := starQuery(sess, dim1, dim2, fact).Rows(context.Background())
				if err != nil {
					if i == 0 {
						openBarrier.Done() // never strand the peer at the barrier
					}
					errs <- fmt.Errorf("session %d iter %d: %w", s, i, err)
					return
				}
				if i == 0 {
					openBarrier.Done()
					openBarrier.Wait()
				}
				var buf bytes.Buffer
				for rows.Next() {
					buf.Write(rows.Record())
				}
				err = rows.Err()
				cerr := rows.Close()
				if err != nil || cerr != nil {
					errs <- fmt.Errorf("session %d iter %d: err=%v close=%v", s, i, err, cerr)
					return
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					errs <- fmt.Errorf("session %d iter %d: result differs from serial run", s, i)
					return
				}
			}
		}(sess, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if hw, total := sys.mem.HighWater(), sys.mem.Total(); hw > total {
		t.Fatalf("broker high water %d B exceeds the system budget %d B", hw, total)
	}
	if hw := sys.mem.HighWater(); hw < 2*perQuery {
		t.Fatalf("high water %d B: the two sessions never actually ran concurrently (want %d)", hw, 2*perQuery)
	}
	if inUse := sys.MemoryInUse(); inUse != 0 {
		t.Fatalf("%d B still granted after all cursors closed", inUse)
	}
}

func mustRows(t testing.TB, q *Query) *Rows {
	t.Helper()
	rows, err := q.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// --- acceptance: cancellation releases everything ---

// TestCancelledQueryReleasesGrantAndLeaksNothing cancels the pipeline
// workload mid-run and asserts the three leak-freedom properties of the
// acceptance criteria: the broker grant is released, no temp collections
// survive, and no goroutines linger.
func TestCancelledQueryReleasesGrantAndLeaksNothing(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			sys := newTestSystem(t, WithParallelism(par))
			dim1, dim2, fact := loadStarTables(t, sys, 200, 2000, "")
			sess := sys.Session()

			// Calibrate the poll count of a clean run.
			calib := testkit.NewCounting(context.Background())
			rows, err := starQuery(sess, dim1, dim2, fact).Rows(calib)
			if err != nil {
				t.Fatal(err)
			}
			collectRows(t, rows)
			total := calib.Polls()
			if total < 4 {
				t.Fatalf("only %d cancellation polls; workload too small to steer", total)
			}

			base := runtime.NumGoroutine()
			for _, frac := range []float64{0, 0.3, 0.7} {
				ctx := testkit.CancelAfter(context.Background(), int64(float64(total)*frac))
				rows, err := starQuery(sess, dim1, dim2, fact).Rows(ctx)
				if err == nil {
					for rows.Next() {
					}
					err = rows.Err()
					if cerr := rows.Close(); cerr != nil {
						t.Fatalf("Close after cancel: %v", cerr)
					}
					if live := rows.ec.LiveTemps(); live != 0 {
						t.Fatalf("cancel at %.0f%%: %d temp collections leaked after Close", frac*100, live)
					}
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at %.0f%%: err = %v, want context.Canceled", frac*100, err)
				}
				if inUse := sys.MemoryInUse(); inUse != 0 {
					t.Fatalf("cancel at %.0f%%: %d B still granted", frac*100, inUse)
				}
				testkit.WaitGoroutines(t, base)
			}
		})
	}
}

// TestSinkFailureReleasesGrant: the pipeline's root group-by folds into
// the caller's output through a sink; when that output refuses a record
// mid-merge the run must surface that one error, hand the grant back and
// leave no goroutine behind — the device-failure twin of the
// cancellation test above.
func TestSinkFailureReleasesGrant(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("p%d", par), func(t *testing.T) {
			sys := newTestSystem(t, WithParallelism(par))
			dim1, dim2, fact := loadStarTables(t, sys, 200, 2000, "")
			sess := sys.Session()
			inner := sess.Query(dim1).JoinWith(sess.Query(fact), GraceJoin())
			q := sess.Query(dim2).JoinWith(inner, GraceJoin()).
				Project(0, 1, 12, 13, 23, 24, 5, 16, 27, 8).
				GroupByWith(3, ExternalMergeSort()).Filter(Predicate{Attr: 1, Op: CmpGe, Value: 1}).Project(0, 1, 2)
			out, err := sys.CreateSized("out", 3*8)
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			boom := errors.New("device full")
			_, err = q.RunCtx(context.Background(), &testkit.FailAfter{Collection: out, N: 50, Err: boom})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the output's error", err)
			}
			if out.Len() != 50 {
				t.Errorf("%d groups reached the output before the failure, want 50", out.Len())
			}
			if inUse := sys.MemoryInUse(); inUse != 0 {
				t.Errorf("%d B still granted after the failed run", inUse)
			}
			testkit.WaitGoroutines(t, base)
		})
	}
}

// TestCancelReleasesGrantWithoutClose: the context watcher alone must
// return the grant to the broker, even before the consumer calls Close.
func TestCancelReleasesGrantWithoutClose(t *testing.T) {
	sys := newTestSystem(t)
	dim1, dim2, fact := loadStarTables(t, sys, 50, 500, "")
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := starQuery(sys.Session(), dim1, dim2, fact).Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sys.MemoryInUse() == 0 {
		t.Fatal("no grant held by an open cursor")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for sys.MemoryInUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d B still granted after context cancellation", sys.MemoryInUse())
		}
		time.Sleep(time.Millisecond)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
}

// --- cursor semantics ---

func TestRowsStreamsSameResultAsRun(t *testing.T) {
	sys := newTestSystem(t)
	dim1, dim2, fact := loadStarTables(t, sys, 100, 1000, "")

	out, err := sys.CreateSized("ref", RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	q := starQuery(sys.Session(), dim1, dim2, fact)
	if _, err := q.RunCtx(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	it := out.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err != nil {
			break
		}
		want.Write(rec)
	}

	rows := mustRows(t, starQuery(sys.Session(), dim1, dim2, fact))
	if rows.RecordSize() != RecordSize {
		t.Fatalf("RecordSize = %d, want %d", rows.RecordSize(), RecordSize)
	}
	if rows.Explain() == nil || rows.Explain().Stages == 0 {
		t.Fatal("cursor carries no explanation")
	}
	n := 0
	var got bytes.Buffer
	for rows.Next() {
		var key uint64
		var rec []byte
		if err := rows.Scan(&rec); err != nil {
			t.Fatal(err)
		}
		if err := rows.Scan(&key); err != nil {
			t.Fatal(err)
		}
		if Key(rec) != key {
			t.Fatalf("Scan attribute %d disagrees with record key %d", key, Key(rec))
		}
		got.Write(rec)
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("cursor stream (%d records) differs from RunCtx output", n)
	}
	if sys.MemoryInUse() != 0 {
		t.Fatalf("%d B still granted", sys.MemoryInUse())
	}
}

func TestScanValidation(t *testing.T) {
	sys := newTestSystem(t)
	in, err := sys.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateRecords(10, 42, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, sys.Session().Query(in))
	if err := rows.Scan(new(uint64)); err == nil {
		t.Fatal("Scan before Next succeeded")
	}
	if !rows.Next() {
		t.Fatal("Next = false on non-empty input")
	}
	var a [10]uint64
	if err := rows.Scan(&a[0], &a[1], &a[2], &a[3], &a[4], &a[5], &a[6], &a[7], &a[8], &a[9]); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(new(uint64), new(string)); err == nil {
		t.Fatal("Scan into *string succeeded")
	}
	var eleven [11]*uint64
	for i := range eleven {
		eleven[i] = new(uint64)
	}
	if err := rows.Scan(eleven[0], eleven[1], eleven[2], eleven[3], eleven[4], eleven[5], eleven[6], eleven[7], eleven[8], eleven[9], eleven[10]); err == nil {
		t.Fatal("Scan of 11 attributes from a 10-attribute record succeeded")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(new(uint64)); err == nil {
		t.Fatal("Scan after Close succeeded")
	}
}

// --- admission policies and session lifecycle ---

func TestAdmissionFailFast(t *testing.T) {
	sys := newTestSystem(t, WithMemoryBudget(1<<20))
	in, err := sys.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateRecords(100, 42, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	hog := sys.Session(WithSessionBudget(sys.MemoryBudget()))
	rows := mustRows(t, hog.Query(in))
	defer rows.Close()

	fast := sys.Session(WithAdmission(AdmitFailFast))
	if _, err := fast.Query(in).Rows(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}

	// A blocking session queues and proceeds once the hog closes.
	done := make(chan error, 1)
	go func() {
		r, err := sys.Session().Query(in).Rows(context.Background())
		if err == nil {
			err = r.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocking query finished while the budget was held (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking query never admitted after release")
	}
}

func TestSessionClose(t *testing.T) {
	sys := newTestSystem(t)
	in, err := sys.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateRecords(10, 42, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	sess := sys.Session()
	q := sess.Query(in)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Rows(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Query(in).RunCtx(context.Background(), nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("RunCtx err = %v, want ErrSessionClosed", err)
	}
}

func TestQueryDeadline(t *testing.T) {
	sys := newTestSystem(t)
	dim1, dim2, fact := loadStarTables(t, sys, 200, 2000, "")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := starQuery(sys.Session(), dim1, dim2, fact).Rows(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sys.MemoryInUse() != 0 {
		t.Fatalf("%d B granted after deadline failure", sys.MemoryInUse())
	}
}

// TestSessionTenantBurstAdmitsOthersFairly runs the broker's weighted
// schedule through real sessions on a one-grant System. Tenant a queues
// a thousand queries behind a held grant, tenant b then queues three:
// b's queries interleave with the burst instead of waiting it out, and
// cancelling the rest of the burst leaves nothing queued, granted, live
// or running.
func TestSessionTenantBurstAdmitsOthersFairly(t *testing.T) {
	const burst = 1000
	sys := newTestSystem(t, WithMemoryBudget(1<<20))
	tbl, err := sys.Create("burst")
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateRecords(200, 3, tbl.Append); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	one := WithSessionBudget(sys.MemoryBudget())
	sessA, sessB := sys.Session(one, WithTenant("a")), sys.Session(one, WithTenant("b"))

	base := runtime.NumGoroutine()
	hold, err := sys.mem.Acquire(context.Background(), sys.MemoryBudget(), AdmitBlock)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var live int
	run := func(ctx context.Context, sess *Session, wg *sync.WaitGroup) {
		defer wg.Done()
		rows, err := sess.Query(tbl).OrderBy().Rows(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Error(err)
			}
			return
		}
		mu.Lock()
		order = append(order, sess.Tenant())
		mu.Unlock()
		for rows.Next() {
		}
		if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
		rows.Close()
		mu.Lock()
		live += rows.ec.LiveTemps()
		mu.Unlock()
	}
	waitQueued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); sys.mem.Waiting() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d queries queued, want %d", sys.mem.Waiting(), n)
			}
		}
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var wgA, wgB sync.WaitGroup
	for range burst {
		wgA.Add(1)
		go run(ctxA, sessA, &wgA)
	}
	waitQueued(burst)
	for range 3 {
		wgB.Add(1)
		go run(context.Background(), sessB, &wgB)
	}
	waitQueued(burst + 3)

	hold.Release()
	wgB.Wait()
	cancelA()
	wgA.Wait()

	mu.Lock()
	first := order[:6]
	mu.Unlock()
	if bs := strings.Count(strings.Join(first, ""), "b"); bs != 3 {
		t.Fatalf("first six admissions %v hold %d of b's 3 queries: the burst walled b off", first, bs)
	}
	if w := sys.mem.Waiting(); w != 0 {
		t.Fatalf("%d queries still queued after cancelling the burst", w)
	}
	if use := sys.MemoryInUse(); use != 0 {
		t.Fatalf("%d B still granted after cancelling the burst", use)
	}
	if live != 0 {
		t.Fatalf("%d temporaries live after the cursors closed", live)
	}
	testkit.WaitGoroutines(t, base)
}
