package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlpm/internal/exec"
	"wlpm/internal/pmem"
	"wlpm/internal/testkit"
)

// fakeEngine serves plans of the form "rows(N)": N records of recSize
// bytes (default 16) whose first two little-endian uint64 attrs are
// (i, i*i). It lets the handler tests run without a storage rig.
type fakeEngine struct {
	recSize  int
	sessions atomic.Int64
	closed   atomic.Int64
	// inRows, when set, runs inside every Rows call with the tenant's
	// name: where the real engine waits for its grant, compiles and runs
	// the blocking stages.
	inRows func(ctx context.Context, tenant string) error
}

func (e *fakeEngine) OpenSession(t Tenant) (EngineSession, error) {
	e.sessions.Add(1)
	return &fakeSession{eng: e, tenant: t.Name}, nil
}

func (e *fakeEngine) BrokerStats() BrokerStats {
	return BrokerStats{Total: 1 << 20, InUse: 1 << 10, HighWater: 1 << 11, Waiting: 3}
}

func (e *fakeEngine) DeviceStats() pmem.Stats { return pmem.Stats{Reads: 7, Writes: 5} }

type fakeSession struct {
	eng    *fakeEngine
	tenant string
}

func (s *fakeSession) Query(dsl string) (EngineQuery, error) {
	var n int
	if _, err := fmt.Sscanf(dsl, "rows(%d)", &n); err != nil {
		return nil, fmt.Errorf("bad plan %q", dsl)
	}
	q := &fakeQuery{n: n, recSize: 16, sess: s}
	if s.eng.recSize > 0 {
		q.recSize = s.eng.recSize
	}
	return q, nil
}

func (s *fakeSession) Close() error { s.eng.closed.Add(1); return nil }

// appendFakeRecord appends record i of a "rows(n)" answer.
func appendFakeRecord(dst []byte, i, recSize int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(i*i))
	for pad := recSize - 16; pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

// fakeRecords is the byte stream a "rows(n)" plan answers with.
func fakeRecords(n, recSize int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		data = appendFakeRecord(data, i, recSize)
	}
	return data
}

type fakeQuery struct {
	n, recSize int
	sess       *fakeSession
}

func (q *fakeQuery) Explain() (*exec.Explain, error) {
	return &exec.Explain{Root: "fake", RecordSize: q.recSize}, nil
}

func (q *fakeQuery) Rows(ctx context.Context) (RowStream, error) {
	if in := q.sess.eng.inRows; in != nil {
		if err := in(ctx, q.sess.tenant); err != nil {
			return nil, err
		}
	}
	return &fakeStream{n: q.n, recSize: q.recSize, ctx: ctx}, nil
}

type fakeStream struct {
	n, recSize int
	ctx        context.Context
	i          int // index of the next record
	rec        []byte
	err        error
}

func (st *fakeStream) Next() bool {
	if st.err != nil || st.i >= st.n {
		return false
	}
	if err := st.ctx.Err(); err != nil {
		st.err = err
		return false
	}
	st.rec = appendFakeRecord(st.rec[:0], st.i, st.recSize)
	st.i++
	return true
}

func (st *fakeStream) Record() []byte  { return st.rec }
func (st *fakeStream) RecordSize() int { return st.recSize }
func (st *fakeStream) Err() error      { return st.err }
func (st *fakeStream) Explain() *exec.Explain {
	return &exec.Explain{Root: "fake", RecordSize: st.recSize}
}
func (st *fakeStream) Close() error { return nil }

// stream is a parsed /v1/query answer: the header, each frame's payload
// and the terminal line.
type stream struct {
	header Header
	frames [][]byte
	last   Line // the end or error line
}

// readStream parses a query answer by the grammar in wire.go, failing
// the test on anything outside it.
func readStream(t testing.TB, body io.Reader) stream {
	t.Helper()
	br := bufio.NewReader(body)
	var st stream
	for first := true; ; first = false {
		text, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended without a terminal line: %v", err)
		}
		var line Line
		if err := json.Unmarshal(text, &line); err != nil {
			t.Fatalf("bad control line %q: %v", text, err)
		}
		switch {
		case first:
			if line.Header == nil {
				t.Fatalf("stream opened with %q, not a header", text)
			}
			st.header = *line.Header
		case line.Batch > 0:
			if want := fmt.Sprintf("{\"batch\":%d}\n", line.Batch); string(text) != want {
				t.Fatalf("batch line %q, want %q", text, want)
			}
			frame := make([]byte, line.Batch*st.header.RecordSize)
			if _, err := io.ReadFull(br, frame); err != nil {
				t.Fatalf("frame of %d records cut short: %v", line.Batch, err)
			}
			st.frames = append(st.frames, frame)
		case line.End != nil || line.Error != "":
			if rest, _ := io.ReadAll(br); len(rest) > 0 {
				t.Fatalf("%d bytes after the terminal line", len(rest))
			}
			st.last = line
			return st
		default:
			t.Fatalf("unexpected control line %q", text)
		}
	}
}

func newTestServer(t *testing.T, tenants ...Tenant) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Engine: &fakeEngine{}, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postQuery(t *testing.T, url, plan string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Plan: plan})
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeHandlerStreamsRows checks the stream shape end to end:
// header, the records verbatim in one short frame, terminal end with
// the row count.
func TestServeHandlerStreamsRows(t *testing.T) {
	_, hs := newTestServer(t)
	resp := postQuery(t, hs.URL+"/v1/query", "rows(100)", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := readStream(t, resp.Body)
	if st.header.RecordSize != 16 {
		t.Fatalf("header %+v", st.header)
	}
	if len(st.frames) != 1 || !bytes.Equal(st.frames[0], fakeRecords(100, 16)) {
		t.Fatalf("%d frames; want the 100 records, verbatim, in one", len(st.frames))
	}
	end := st.last.End
	if end == nil || end.Rows != 100 {
		t.Fatalf("terminal line %+v", st.last)
	}
	if end.Explain == nil || end.Explain.Root != "fake" {
		t.Fatalf("end explain %+v", end.Explain)
	}
}

// TestServeHandlerFrames checks how records fall into frames: each frame
// but the last carries as many whole records as fit frameTarget, a
// record wider than the target travels alone, and the payloads
// concatenate to the engine's bytes exactly.
func TestServeHandlerFrames(t *testing.T) {
	for _, tc := range []struct{ rows, recSize, perFrame int }{
		{rows: 10000, recSize: 24, perFrame: frameTarget / 24},
		{rows: frameTarget / 32 * 3, recSize: 32, perFrame: frameTarget / 32}, // no short last frame
		{rows: 3, recSize: frameTarget + 8, perFrame: 1},
	} {
		s, err := New(Config{Engine: &fakeEngine{recSize: tc.recSize}})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		resp := postQuery(t, hs.URL+"/v1/query", fmt.Sprintf("rows(%d)", tc.rows), nil)
		st := readStream(t, resp.Body)
		resp.Body.Close()
		hs.Close()

		var got []byte
		for i, f := range st.frames {
			if want := min(tc.perFrame, tc.rows-i*tc.perFrame) * tc.recSize; len(f) != want {
				t.Fatalf("%d-byte records: frame %d carries %d bytes, want %d", tc.recSize, i, len(f), want)
			}
			got = append(got, f...)
		}
		if !bytes.Equal(got, fakeRecords(tc.rows, tc.recSize)) {
			t.Fatalf("%d-byte records: frame payloads differ from the engine's records", tc.recSize)
		}
		if st.last.End == nil || st.last.End.Rows != int64(tc.rows) {
			t.Fatalf("%d-byte records: terminal line %+v", tc.recSize, st.last)
		}
	}
}

// TestPutBatchLine pins the hand-written batch line to the JSON
// encoding of the Line it stands for.
func TestPutBatchLine(t *testing.T) {
	for _, n := range []int{1, 9, 10, 1024, 1<<63 - 1} {
		room := make([]byte, batchLineRoom)
		got := room[putBatchLine(room, n):]
		want, _ := json.Marshal(Line{Batch: n})
		if string(got) != string(want)+"\n" {
			t.Errorf("putBatchLine(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestServeHandlerAuth pins the tenant resolution matrix with a
// configured tenant set: token → tenant, token-less tenant by header,
// unknown token and missing credentials → 401.
func TestServeHandlerAuth(t *testing.T) {
	_, hs := newTestServer(t,
		Tenant{Name: "alpha", Token: "secret-a"},
		Tenant{Name: "beta"}, // open: selected by header
	)
	cases := []struct {
		name string
		hdr  map[string]string
		code int
	}{
		{"good token", map[string]string{"Authorization": "Bearer secret-a"}, http.StatusOK},
		{"bad token", map[string]string{"Authorization": "Bearer nope"}, http.StatusUnauthorized},
		{"bad scheme", map[string]string{"Authorization": "Basic abc"}, http.StatusUnauthorized},
		{"open tenant by header", map[string]string{TenantHeader: "beta"}, http.StatusOK},
		{"token tenant by header", map[string]string{TenantHeader: "alpha"}, http.StatusUnauthorized},
		{"no credentials", nil, http.StatusUnauthorized},
		{"unknown tenant", map[string]string{TenantHeader: "gamma"}, http.StatusUnauthorized},
	}
	for _, tc := range cases {
		resp := postQuery(t, hs.URL+"/v1/query", "rows(1)", tc.hdr)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

// TestServeHandlerErrors pins the non-streaming error answers.
func TestServeHandlerErrors(t *testing.T) {
	_, hs := newTestServer(t)
	resp := postQuery(t, hs.URL+"/v1/query", "not a plan", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan: status %d", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("bad plan: error doc %+v, %v", e, err)
	}
	big := postQuery(t, hs.URL+"/v1/query", strings.Repeat("x", maxRequestBytes), nil)
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized plan: status %d", big.StatusCode)
	}
	resp2, err := http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: status %d", resp2.StatusCode)
	}
}

// TestServeHandlerExplain checks POST /v1/explain returns the compiled
// explanation as one JSON document.
func TestServeHandlerExplain(t *testing.T) {
	_, hs := newTestServer(t)
	resp := postQuery(t, hs.URL+"/v1/explain", "rows(5)", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Explain == nil || doc.Explain.Root != "fake" || doc.Explain.RecordSize != 16 {
		t.Fatalf("explain %+v", doc.Explain)
	}
}

// TestServeHandlerMetrics checks the metrics document: broker stats pass
// through, per-tenant counters accumulate.
func TestServeHandlerMetrics(t *testing.T) {
	_, hs := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp := postQuery(t, hs.URL+"/v1/query", "rows(10)", map[string]string{TenantHeader: "alice"})
		drainBody(t, resp)
	}
	resp := postQuery(t, hs.URL+"/v1/query", "rows(4)", map[string]string{TenantHeader: "bob"})
	drainBody(t, resp)

	mresp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", mresp.StatusCode)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Broker.Total != 1<<20 || m.Broker.Waiting != 3 {
		t.Fatalf("broker %+v", m.Broker)
	}
	if m.Device.Reads != 7 || m.Device.Writes != 5 {
		t.Fatalf("device %+v", m.Device)
	}
	alice, bob := m.Tenants["alice"], m.Tenants["bob"]
	if alice.Queries != 3 || alice.Completed != 3 || alice.Rows != 30 || alice.Bytes != 480 {
		t.Fatalf("alice %+v", alice)
	}
	if bob.Queries != 1 || bob.Rows != 4 {
		t.Fatalf("bob %+v", bob)
	}
	if m.InFlight != 0 {
		t.Fatalf("in_flight=%d after drain", m.InFlight)
	}
}

// TestServeTenantsOverlapInRows: two tenants' queries are inside Rows —
// the engine's grant, compile and blocking stages — at the same time.
// The server holds no critical section around Rows; whether two queries
// run together is the memory broker's call alone.
func TestServeTenantsOverlapInRows(t *testing.T) {
	inside := make(chan string, 2)
	both := make(chan struct{})
	eng := &fakeEngine{inRows: func(ctx context.Context, tenant string) error {
		inside <- tenant
		select {
		case <-both:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// The answers' headers come only once Rows returns, so the requests
	// are sent off the test goroutine and their bodies drained on it.
	resps := make(chan *http.Response, 2)
	for _, tenant := range []string{"alice", "bob"} {
		body, _ := json.Marshal(QueryRequest{Plan: "rows(3)"})
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
			}
			resps <- resp
		}()
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case tenant := <-inside:
			seen[tenant] = true
		case <-time.After(5 * time.Second):
			close(both)
			t.Fatalf("only %v inside Rows: the second tenant's query waits for the first's blocking stages", seen)
		}
	}
	close(both)
	for range 2 {
		if resp := <-resps; resp != nil {
			drainBody(t, resp)
		}
	}
}

// TestServeShutdownClosesSessions checks graceful shutdown closes the
// opened engine sessions exactly once.
func TestServeShutdownClosesSessions(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	for _, tenant := range []string{"a", "b"} {
		resp := postQuery(t, hs.URL+"/v1/query", "rows(1)", map[string]string{TenantHeader: tenant})
		drainBody(t, resp)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.closed.Load(); got != eng.sessions.Load() || got != 2 {
		t.Fatalf("closed %d of %d sessions", got, eng.sessions.Load())
	}
	select {
	case <-s.base.Done():
	default:
		t.Fatal("base context not cancelled after Shutdown")
	}
}

// TestServeShutdownBeforeServe: a Shutdown that overtakes Serve still
// closes the server, so the late Serve gives the listener back closed
// instead of accepting on it forever.
func TestServeShutdownBeforeServe(t *testing.T) {
	s, err := New(Config{Engine: &fakeEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown is still accepting")
	}
	if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepts connections after Shutdown")
	}
}

// TestServeSlowHeadersDisconnected: a client that trickles its request
// line and headers, one byte per 50 ms, is disconnected once the header
// read timeout passes, before any handler runs, and the server keeps no
// goroutine for it afterwards.
func TestServeSlowHeadersDisconnected(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if s.hs.ReadHeaderTimeout != readHeaderTimeout || s.hs.ReadTimeout != readTimeout {
		t.Fatalf("read timeouts %v/%v, want %v/%v", s.hs.ReadHeaderTimeout, s.hs.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	s.hs.ReadHeaderTimeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	baseline := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// 200 bytes at 50 ms each take 10 s to send: far past the timeout.
	request := "POST /v1/query HTTP/1.1\r\nHost: wlpm\r\nContent-Type: application/json\r\n" +
		TenantHeader + ": " + strings.Repeat("x", 200) + "\r\n\r\n"
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		for i := 0; i < len(request); i++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := conn.Write([]byte{request[i]}); err != nil {
				return
			}
		}
	}()
	// The server hangs up, at most after a 400: read to its close.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	close(stop)
	<-trickled
	conn.Close()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v into a trickled request", time.Since(start).Round(time.Millisecond))
	}
	if bytes.HasPrefix(reply, []byte("HTTP/1.1 200")) {
		t.Fatalf("server answered a request whose headers never finished: %q", reply)
	}
	s.mu.Lock()
	tenants := len(s.byName)
	s.mu.Unlock()
	if tenants != 0 || eng.sessions.Load() != 0 {
		t.Fatalf("a handler ran: %d tenants provisioned, %d sessions opened", tenants, eng.sessions.Load())
	}
	testkit.WaitGoroutines(t, baseline)
}

func drainBody(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if st := readStream(t, resp.Body); st.last.End == nil {
		t.Fatalf("stream did not end cleanly: %+v", st.last)
	}
}

// discardWriter is a ResponseWriter that counts the body and drops it.
type discardWriter struct {
	header http.Header
	status int
	bytes  int64
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += int64(len(p)); return len(p), nil }
func (w *discardWriter) Flush()                      {}

const encodeRows, encodeRecSize = 50_000, 32

// serveEncode answers one 50k-row query into a discarding writer: the
// handler's whole cost with no socket behind it.
func serveEncode(tb testing.TB, h http.Handler) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"plan":"rows(%d)"}`, encodeRows)))
	w := &discardWriter{header: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.bytes < encodeRows*encodeRecSize {
		tb.Fatalf("status %d, %d body bytes", w.status, w.bytes)
	}
}

func BenchmarkServeEncode(b *testing.B) {
	s, err := New(Config{Engine: &fakeEngine{recSize: encodeRecSize}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(encodeRows * encodeRecSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveEncode(b, s.Handler())
	}
}

// TestServeEncodeAllocs holds the handler's streaming loop to its
// budget: what a query allocates is per request (parsing, the frame
// buffer's growth, the control lines), nothing per row.
func TestServeEncodeAllocs(t *testing.T) {
	s, err := New(Config{Engine: &fakeEngine{recSize: encodeRecSize}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { serveEncode(t, s.Handler()) })
	if perRow := allocs / encodeRows; perRow >= 0.01 {
		t.Fatalf("%.0f allocations for %d rows: %.3f per row, want 0", allocs, encodeRows, perRow)
	}
	t.Logf("%.0f allocations per %d-row query", allocs, encodeRows)
}
