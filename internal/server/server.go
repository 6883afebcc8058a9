package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wlpm/internal/broker"
)

// TenantHeader selects the tenant on unauthenticated requests: in open
// mode it names (and auto-provisions) the tenant; with configured
// tenants it selects a tenant whose token is empty.
const TenantHeader = "X-Wlpm-Tenant"

// DefaultTenant is the tenant of open-mode requests without TenantHeader.
const DefaultTenant = "default"

// Tenant configures one tenant of the service.
type Tenant struct {
	Name string
	// Token is the bearer token that authenticates the tenant
	// (Authorization: Bearer <token>). Empty means the tenant is open:
	// requests select it by the TenantHeader header, unauthenticated.
	Token string
	// Weight is the tenant's share of admissions under contention; the
	// memory broker admits tenants' queries proportionally to their
	// weights. Values below 1 count as 1.
	Weight int
	// Budget is the per-query working-memory grant of the tenant's
	// session (0 = engine default).
	Budget int64
	// FailFast makes the tenant's queries fail with 503 instead of
	// queueing when their grant does not fit.
	FailFast bool
}

// Config configures New.
type Config struct {
	// Engine executes the queries. Required.
	Engine Engine
	// Tenants is the closed tenant set. Empty turns on open mode: any
	// TenantHeader value names a tenant, auto-provisioned with engine
	// defaults, and requests without the header use DefaultTenant.
	Tenants []Tenant
	// DrainTimeout bounds graceful shutdown's first phase: in-flight
	// streams get this long to finish before their contexts are
	// cancelled (default 10s).
	DrainTimeout time.Duration
	// Logf, when set, receives one line per completed request.
	Logf func(format string, args ...any)
}

// Server is the HTTP query service. Construct with New, expose with
// Handler or Serve, stop with Shutdown.
type Server struct {
	cfg   Config
	eng   Engine
	met   *metricsRegistry
	mux   *http.ServeMux
	start time.Time

	// base is cancelled to abort every in-flight query (shutdown's
	// second phase); each request context is derived from both the
	// client connection and base.
	base       context.Context
	cancelBase context.CancelFunc

	mu      sync.Mutex
	byName  map[string]*tenantState
	byToken map[string]*tenantState
	open    bool // no configured tenants: auto-provision by header

	inFlight atomic.Int64

	// hs exists from New on, so that Shutdown closes it whether or not
	// Serve has started: a Serve that comes later returns at once.
	hs *http.Server
}

// tenantState is one tenant's runtime: its config and its lazily opened
// engine session.
type tenantState struct {
	cfg  Tenant
	once sync.Once
	sess EngineSession
	err  error
}

func (ts *tenantState) session(eng Engine) (EngineSession, error) {
	ts.once.Do(func() {
		ts.sess, ts.err = eng.OpenSession(ts.cfg)
	})
	return ts.sess, ts.err
}

// New builds a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	//lint:allow wlvet/ctxparam the server owns its lifetime root; per-request contexts derive from it and Shutdown cancels it
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        cfg.Engine,
		met:        newMetricsRegistry(),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		base:       base,
		cancelBase: cancel,
		byName:     make(map[string]*tenantState),
		byToken:    make(map[string]*tenantState),
		open:       len(cfg.Tenants) == 0,
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, errors.New("server: tenant with empty name")
		}
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
		}
		ts := &tenantState{cfg: t}
		s.byName[t.Name] = ts
		if t.Token != "" {
			if _, dup := s.byToken[t.Token]; dup {
				return nil, fmt.Errorf("server: tenants share a token")
			}
			s.byToken[t.Token] = ts
		}
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	// WriteTimeout stays unset: a response streams for as long as the
	// client drains it, and a deadline on the whole response would cut
	// off every long result.
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
	return s, nil
}

// readHeaderTimeout and readTimeout bound how long a client may take to
// send its request line and headers, and the whole request, so a client
// that trickles them cannot hold a connection and its goroutine forever.
// Once the body has been read net/http clears the read deadline, so
// neither bounds the streamed response.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
)

// Handler is the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown; after Shutdown it
// closes l and returns nil at once.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown stops the server gracefully: stop accepting, give in-flight
// streams DrainTimeout to finish, then cancel their contexts — which
// aborts the cursors, releasing grants and temporaries — and wait for
// the handlers to unwind. ctx bounds the whole process.
func (s *Server) Shutdown(ctx context.Context) error {
	drain, cancelDrain := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancelDrain()

	done := make(chan error, 1)
	go func() {
		//lint:allow wlvet/ctxparam graceful drain must outlive the request contexts being drained; DrainTimeout bounds it below
		err := s.hs.Shutdown(context.Background())
		// Requests that reached Handler() some other way (tests,
		// embedding) are not the http.Server's to wait for.
		for s.inFlight.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		done <- err
	}()

	var err error
	select {
	case err = <-done: // drained in time
	case <-drain.Done():
		s.cancelBase() // abort the stragglers' queries
		err = <-done
	}
	s.cancelBase()
	s.closeSessions()
	if ctx.Err() != nil && err == nil {
		err = ctx.Err()
	}
	return err
}

func (s *Server) closeSessions() {
	s.mu.Lock()
	states := make([]*tenantState, 0, len(s.byName))
	for _, ts := range s.byName {
		states = append(states, ts)
	}
	s.mu.Unlock()
	for _, ts := range states {
		// Only sessions that were actually opened.
		ts.once.Do(func() {})
		if ts.sess != nil {
			ts.sess.Close()
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// tenantFor authenticates the request. With configured tenants, a
// bearer token selects its tenant and the TenantHeader header selects a
// token-less (open) tenant; anything else is 401. In open mode the
// TenantHeader value (default DefaultTenant) names an auto-provisioned
// tenant.
func (s *Server) tenantFor(r *http.Request) (*tenantState, error) {
	if auth := r.Header.Get("Authorization"); auth != "" {
		token, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok {
			return nil, errors.New("unsupported Authorization scheme")
		}
		s.mu.Lock()
		ts := s.byToken[token]
		s.mu.Unlock()
		if ts == nil {
			return nil, errors.New("unknown token")
		}
		return ts, nil
	}
	name := r.Header.Get(TenantHeader)
	if s.open {
		if name == "" {
			name = DefaultTenant
		}
		s.mu.Lock()
		ts, ok := s.byName[name]
		if !ok {
			ts = &tenantState{cfg: Tenant{Name: name, Weight: 1}}
			s.byName[name] = ts
		}
		s.mu.Unlock()
		return ts, nil
	}
	if name == "" {
		return nil, errors.New("missing credentials")
	}
	s.mu.Lock()
	ts := s.byName[name]
	s.mu.Unlock()
	if ts == nil || ts.cfg.Token != "" {
		return nil, errors.New("tenant requires a token")
	}
	return ts, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a query/explain request body; a plan is a line
// of DSL, so anything near this is not one.
const maxRequestBytes = 1 << 20

// parseRequest authenticates and parses a query/explain request,
// answering the error responses itself. The returned query is bound to
// the tenant's engine session.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*tenantState, EngineQuery, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, nil, false
	}
	ts, err := s.tenantFor(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "unauthorized: %v", err)
		return nil, nil, false
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "bad request body: %v", err)
		return nil, nil, false
	}
	if strings.TrimSpace(req.Plan) == "" {
		writeError(w, http.StatusBadRequest, "empty plan")
		return nil, nil, false
	}
	sess, err := ts.session(s.eng)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "session: %v", err)
		return nil, nil, false
	}
	q, err := sess.Query(req.Plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad plan: %v", err)
		return nil, nil, false
	}
	return ts, q, true
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	_, q, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	ex, err := q.Explain()
	if err != nil {
		writeError(w, http.StatusBadRequest, "explain: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Explain: ex})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ts, q, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	name := ts.cfg.Name
	tc := s.met.tenant(name)
	tc.queries.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The query context dies with the client connection or with
	// shutdown's second phase, whichever first; either way the cursor
	// aborts and its grant and temporaries release.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()

	t0 := time.Now()
	rows, err := q.Rows(ctx)
	if err != nil {
		switch {
		case errors.Is(err, broker.ErrAdmission):
			writeError(w, http.StatusServiceUnavailable, "admission: %v", err)
		case ctx.Err() != nil:
			tc.cancelled.Add(1)
			writeError(w, http.StatusServiceUnavailable, "cancelled: %v", err)
		default:
			tc.errored.Add(1)
			writeError(w, http.StatusInternalServerError, "query: %v", err)
		}
		return
	}
	tc.admitWait.Add(int64(time.Since(t0)))
	tc.active.Add(1)
	defer tc.active.Add(-1)
	defer rows.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)

	rs := rows.RecordSize()
	if err := enc.Encode(Line{Header: &Header{RecordSize: rs}}); err != nil {
		tc.cancelled.Add(1)
		return
	}
	flush()

	// One buffer carries a whole frame — control line, then payload — so
	// a frame is one Write and one flush. The line is written last, once
	// the count is known, right-aligned into the room kept ahead of the
	// payload. The buffer grows by append to the largest frame sent: a
	// short answer never pays for a full-size frame.
	var n int64
	frame := make([]byte, batchLineRoom)
	for more := true; more; {
		if more = rows.Next(); more {
			frame = append(frame, rows.Record()...)
		}
		payload := len(frame) - batchLineRoom
		if payload == 0 || more && payload+rs <= frameTarget {
			continue // nothing to send, or room for the next record
		}
		k := payload / rs
		if _, err := w.Write(frame[putBatchLine(frame[:batchLineRoom], k):]); err != nil {
			// Client gone: abort the cursor and unwind. rows.Close (and
			// cancel) release the grant and destroy temporaries.
			cancel()
			tc.rows.Add(n)
			tc.bytes.Add(n * int64(rs))
			tc.cancelled.Add(1)
			s.logf("query tenant=%s rows=%d disconnect", name, n)
			return
		}
		flush()
		n += int64(k)
		frame = frame[:batchLineRoom]
	}
	tc.rows.Add(n)
	tc.bytes.Add(n * int64(rs))
	if err := rows.Err(); err != nil {
		if ctx.Err() != nil {
			tc.cancelled.Add(1)
		} else {
			tc.errored.Add(1)
		}
		enc.Encode(Line{Error: err.Error()})
		flush()
		s.logf("query tenant=%s rows=%d err=%v", name, n, err)
		return
	}
	tc.completed.Add(1)
	enc.Encode(Line{End: &End{Rows: n, Explain: rows.Explain()}})
	flush()
	s.logf("query tenant=%s rows=%d ok", name, n)
}

// batchLineRoom is the space a frame buffer keeps ahead of its payload
// for the frame's control line: `{"batch":N}` and a newline, N up to 19
// digits.
const batchLineRoom = len(`{"batch":}`) + 19 + 1

// putBatchLine writes the control line of an n-record frame flush
// against the end of room (batchLineRoom bytes) and returns where in
// room it starts. The bytes are those json.Marshal(Line{Batch: n})
// gives, without its reflection and allocation per frame.
func putBatchLine(room []byte, n int) int {
	var buf [batchLineRoom]byte
	line := append(strconv.AppendInt(append(buf[:0], `{"batch":`...), int64(n), 10), '}', '\n')
	return len(room) - copy(room[len(room)-len(line):], line)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if _, err := s.tenantFor(r); err != nil {
		writeError(w, http.StatusUnauthorized, "unauthorized: %v", err)
		return
	}
	bs := s.eng.BrokerStats()
	writeJSON(w, http.StatusOK, Metrics{
		UptimeMs: int64(time.Since(s.start) / time.Millisecond),
		InFlight: s.inFlight.Load(),
		Broker:   bs,
		Device:   deviceMetrics(s.eng.DeviceStats()),
		Tenants:  s.met.snapshot(bs.Queues, s.tenantWeights()),
	})
}

// tenantWeights snapshots every tenant's configured weight under s.mu,
// so the metrics registry can render without calling back into the
// server — snapshot under m.mu must see plain data, not a closure that
// takes s.mu (a lock edge hidden behind an indirect call).
func (s *Server) tenantWeights() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	weights := make(map[string]int, len(s.byName))
	for name, ts := range s.byName {
		weights[name] = ts.cfg.Weight
	}
	return weights
}
