package wlpm

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"wlpm/client"
	"wlpm/internal/server"
	"wlpm/internal/testkit"
)

// serveStarPlan is the star pipeline of the concurrency acceptance
// tests, as plan DSL with every algorithm pinned — so the in-process
// reference and every remote client compile the identical physical plan
// and results can be compared byte for byte.
const serveStarPlan = "scan(dim2) | join(scan(dim1) | join(scan(fact); GJ); GJ) | " +
	"project(a0,a1,a12,a13,a23,a24,a5,a16,a27,a8) | groupby(a3; ExMS) | orderby(ExMS)"

// recordingEngine wraps the façade's serve engine so the test can reach
// the concrete *Rows cursors the server hands out — and therefore their
// execution contexts' temp accounting — from outside the handler.
type recordingEngine struct {
	server.Engine
	mu      sync.Mutex
	streams []*Rows
}

func (e *recordingEngine) OpenSession(t server.Tenant) (server.EngineSession, error) {
	s, err := e.Engine.OpenSession(t)
	if err != nil {
		return nil, err
	}
	return &recordingSession{EngineSession: s, eng: e}, nil
}

type recordingSession struct {
	server.EngineSession
	eng *recordingEngine
}

func (s *recordingSession) Query(dsl string) (server.EngineQuery, error) {
	q, err := s.EngineSession.Query(dsl)
	if err != nil {
		return nil, err
	}
	return &recordingQuery{EngineQuery: q, eng: s.eng}, nil
}

type recordingQuery struct {
	server.EngineQuery
	eng *recordingEngine
}

func (q *recordingQuery) Rows(ctx context.Context) (server.RowStream, error) {
	rs, err := q.EngineQuery.Rows(ctx)
	if err != nil {
		return nil, err
	}
	if rows, ok := rs.(*Rows); ok {
		q.eng.mu.Lock()
		q.eng.streams = append(q.eng.streams, rows)
		q.eng.mu.Unlock()
	}
	return rs, nil
}

// liveTemps sums the live temporaries of every cursor the server opened.
func (e *recordingEngine) liveTemps() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.streams {
		n += r.ec.LiveTemps()
	}
	return n
}

// newServeStack builds a system with the star tables, a server over it
// (open tenancy) and an httptest front, plus the recording engine for
// leak assertions.
func newServeStack(t *testing.T, nDim, nFact int, budget int64) (*System, map[string]Collection, *recordingEngine, *server.Server, *httptest.Server) {
	t.Helper()
	sys := newTestSystem(t, WithMemoryBudget(budget))
	dim1, dim2, fact := loadStarTables(t, sys, nDim, nFact, "")
	catalog := map[string]Collection{"dim1": dim1, "dim2": dim2, "fact": fact}
	eng := &recordingEngine{Engine: sys.ServeEngine(catalog)}
	srv, err := server.New(server.Config{Engine: eng, DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener = smallBufListener{hs.Listener}
	hs.Start()
	t.Cleanup(hs.Close)
	return sys, catalog, eng, srv, hs
}

// smallSockBuf caps the kernel socket buffers of the serve tests'
// connections. A loopback socket can otherwise buffer megabytes (Linux
// grows a send buffer to tcp_wmem's maximum, commonly 4 MiB), enough to
// hold a whole test stream, so a server could finish writing before a
// client that walks away has closed.
const smallSockBuf = 32 << 10

// smallBufListener caps every accepted connection's send buffer.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(smallSockBuf) //nolint:errcheck // a best-effort cap
	}
	return c, err
}

// smallBufClient is an HTTP client whose connections cap their receive
// buffer, smallBufListener's twin on the client side.
func smallBufClient() *http.Client {
	dial := (&net.Dialer{}).DialContext
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dial(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetReadBuffer(smallSockBuf) //nolint:errcheck // a best-effort cap
			}
			return c, err
		},
	}}
}

// TestServeEndToEndByteIdentical is the serving acceptance scenario:
// K=8 concurrent remote clients stream the star pipeline and every one
// receives bytes identical to in-process execution of the same plan;
// afterwards the metrics endpoint's broker figures are consistent with
// the run and nothing is left granted.
func TestServeEndToEndByteIdentical(t *testing.T) {
	total := int64(4 << 20)
	sys, catalog, eng, srv, hs := newServeStack(t, 200, 2000, total)

	// In-process reference, via the identical DSL and session budget
	// (the server's open-mode default: a quarter of the system budget).
	refSess := sys.Session()
	q, err := refSess.ParseQuery(serveStarPlan, CollectionLookup(catalog))
	if err != nil {
		t.Fatal(err)
	}
	ref := collectRows(t, mustRows(t, q))
	if len(ref) == 0 {
		t.Fatal("empty reference result")
	}

	const K = 8
	got := make([][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := client.Dial(hs.URL).Session(fmt.Sprintf("c%d", i))
			rows, err := sess.Query(serveStarPlan).Rows(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			defer rows.Close()
			var buf bytes.Buffer
			for rows.Next() {
				buf.Write(rows.Record())
			}
			if err := rows.Err(); err != nil {
				errs[i] = err
				return
			}
			got[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], ref) {
			t.Fatalf("client %d received %d bytes differing from the %d-byte in-process reference", i, len(got[i]), len(ref))
		}
	}

	// A client can read its end line a moment before the handler that
	// wrote it has returned and dropped its grant: let the last ones out.
	var met *client.Metrics
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if met, err = client.Dial(hs.URL).Metrics(context.Background()); err != nil {
			t.Fatal(err)
		}
		if met.InFlight == 0 || time.Now().After(deadline) {
			break
		}
	}
	if met.Broker.Total != total {
		t.Fatalf("metrics broker total %d, want %d", met.Broker.Total, total)
	}
	if met.Broker.HighWater <= 0 || met.Broker.HighWater > total {
		t.Fatalf("metrics broker high water %d out of (0, %d]", met.Broker.HighWater, total)
	}
	if met.Broker.InUse != 0 || met.InFlight != 0 || met.Broker.Waiting != 0 {
		t.Fatalf("after drain: in_use=%d in_flight=%d broker.waiting=%d", met.Broker.InUse, met.InFlight, met.Broker.Waiting)
	}
	var queries, completed int64
	for _, tm := range met.Tenants {
		queries += tm.Queries
		completed += tm.Completed
	}
	if queries != K || completed != K {
		t.Fatalf("metrics count %d queries (%d completed), want %d", queries, completed, K)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if use := sys.MemoryInUse(); use != 0 {
		t.Fatalf("%d B still granted after shutdown", use)
	}
	if n := eng.liveTemps(); n != 0 {
		t.Fatalf("%d temporaries still live after shutdown", n)
	}
}

// TestServeClientDisconnectNoLeaks kills a client mid-stream and then
// proves the server side fully unwound: the memory grant released, the
// cursor's temporaries destroyed, the handler goroutines gone — and the
// service still healthy for the next query.
func TestServeClientDisconnectNoLeaks(t *testing.T) {
	// The wide plan streams every fact row (no group-by), megabytes of
	// frames — far more than the capped socket buffers on both ends hold
	// (smallSockBuf), so the server is mid-write when the client walks
	// away.
	const widePlan = "scan(dim1) | join(scan(fact); GJ) | orderby(ExMS)"
	sys, _, eng, srv, hs := newServeStack(t, 200, 20000, 4<<20)
	c := client.Dial(hs.URL).WithHTTPClient(smallBufClient())
	dropper := c.Session("dropper")

	baseline := runtime.NumGoroutine()

	rows, err := dropper.Query(widePlan).Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
	// Disconnect mid-stream. The server sees the write fail (or the
	// request context die) and cancels the cursor.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	waitUnwound(t, sys, eng, baseline)

	// The service takes the next query as if nothing happened.
	rows2, err := dropper.Query(widePlan).Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows2.Next() {
		n++
	}
	if err := rows2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows after reconnect")
	}

	met, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tm := met.Tenants["dropper"]
	if tm.Cancelled != 1 || tm.Completed != 1 || tm.Queries != 2 {
		t.Fatalf("dropper counters %+v, want 2 queries = 1 cancelled + 1 completed", tm)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUnwound(t, sys, eng, baseline)
}

// TestServeShutdownCancelsInFlight checks graceful shutdown's second
// phase: a cursor that outlives the drain window is cancelled, its
// grant and temporaries released.
func TestServeShutdownCancelsInFlight(t *testing.T) {
	sys := newTestSystem(t, WithMemoryBudget(4<<20))
	dim1, dim2, fact := loadStarTables(t, sys, 200, 2000, "")
	catalog := map[string]Collection{"dim1": dim1, "dim2": dim2, "fact": fact}
	eng := &recordingEngine{Engine: sys.ServeEngine(catalog)}
	srv, err := server.New(server.Config{Engine: eng, DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	rows, err := client.Dial(hs.URL).Session("slow").Query(serveStarPlan).Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// Don't read further: the stream idles past the drain window.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sys.MemoryInUse() != 0 || eng.liveTemps() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after forced shutdown: %d B granted, %d temps live", sys.MemoryInUse(), eng.liveTemps())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitUnwound polls until no grant is held and no temp is live, then
// waits for the goroutine count to come back to (or under) the baseline
// plus a small allowance for idle HTTP keep-alive machinery.
func waitUnwound(t *testing.T, sys *System, eng *recordingEngine, baseline int) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for sys.MemoryInUse() != 0 || eng.liveTemps() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("did not unwind: %d B granted, %d temps", sys.MemoryInUse(), eng.liveTemps())
		}
		time.Sleep(time.Millisecond)
	}
	testkit.WaitGoroutines(t, baseline+slack)
}
