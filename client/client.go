// Package client is the remote face of the wlpm query API: it speaks
// the wlserved /v1 protocol and mirrors the in-process fluent chain, so
//
//	rows, err := client.Dial(addr).Session("alice").Query(dsl).Rows(ctx)
//
// works like sys.Session(...).ParseQuery(dsl, ...).Rows(ctx), streaming
// records with backpressure. Records arrive byte-identical to
// in-process execution: a /v1/query answer carries them as binary
// frames of verbatim record bytes between JSON control lines (the
// grammar is in internal/server/wire.go), and the cursor serves each
// record as a slice of the frame it arrived in — no per-row decoding,
// no per-row allocation. Everything the stream announces is checked
// before it is trusted: record size, frame size against
// server.MaxFrameBytes, frame and stream completeness.
// Cancelling ctx — or calling Rows.Close early — tears down the HTTP
// request, which the server observes as a disconnect and turns into
// cursor cancellation, releasing the query's memory grant and
// temporaries.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"wlpm/internal/server"
)

// Explain re-exports the compiled-plan explanation document.
type Explain = server.ExplainResponse

// Metrics re-exports the /v1/metrics document.
type Metrics = server.Metrics

// Client is a handle on one wlserved instance. It is cheap and safe for
// concurrent use; create sessions from it per tenant.
type Client struct {
	base string
	hc   *http.Client
}

// Dial targets a wlserved instance. addr is "host:port" or a full
// http:// URL. No connection is made until the first request.
func Dial(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimSuffix(addr, "/"), hc: &http.Client{}}
}

// WithHTTPClient substitutes the transport (tests, timeouts, proxies).
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// Metrics fetches the server's /v1/metrics document unauthenticated
// (open-mode servers only; use Session.Metrics against configured
// tenants).
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	return c.metrics(ctx, nil)
}

func (c *Client) metrics(ctx context.Context, hdr http.Header) (*Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	copyHeader(req.Header, hdr)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	m := new(Metrics)
	if err := json.NewDecoder(resp.Body).Decode(m); err != nil {
		return nil, err
	}
	return m, nil
}

// SessionOption configures Client.Session.
type SessionOption func(*Session)

// WithToken authenticates the session's requests with a bearer token.
func WithToken(token string) SessionOption {
	return func(s *Session) { s.token = token }
}

// Session is one tenant's remote handle, mirroring wlpm.Session. Safe
// for concurrent use.
type Session struct {
	c      *Client
	tenant string
	token  string
}

// Session opens a remote session as the named tenant. Against an
// open-mode server the name alone selects (and auto-provisions) the
// tenant; configured tenants authenticate with WithToken.
func (c *Client) Session(tenant string, opts ...SessionOption) *Session {
	s := &Session{c: c, tenant: tenant}
	for _, o := range opts {
		o(s)
	}
	return s
}

func (s *Session) header() http.Header {
	h := make(http.Header)
	if s.token != "" {
		h.Set("Authorization", "Bearer "+s.token)
	} else if s.tenant != "" {
		h.Set(server.TenantHeader, s.tenant)
	}
	return h
}

// Metrics fetches /v1/metrics with this session's credentials.
func (s *Session) Metrics(ctx context.Context) (*Metrics, error) {
	return s.c.metrics(ctx, s.header())
}

// Query starts a remote query from plan DSL source (see cmd/wlquery for
// the grammar). Errors — parse errors included — surface from Rows or
// Explain, like the in-process builder's deferred errors.
func (s *Session) Query(dsl string) *Query {
	return &Query{s: s, plan: dsl}
}

// Query is one remote query, ready to explain or execute.
type Query struct {
	s    *Session
	plan string
}

func (q *Query) post(ctx context.Context, path string) (*http.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := json.Marshal(server.QueryRequest{Plan: q.plan})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, q.s.c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeader(req.Header, q.s.header())
	req.Header.Set("Content-Type", "application/json")
	return q.s.c.hc.Do(req)
}

// Explain compiles the plan on the server without running it.
func (q *Query) Explain(ctx context.Context) (*Explain, error) {
	resp, err := q.post(ctx, "/v1/explain")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	doc := new(Explain)
	if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Rows executes the plan and returns the streaming cursor. An admission
// rejection (fail-fast tenant, no memory free) surfaces here as an
// error; mid-stream failures surface from Rows.Err.
func (q *Query) Rows(ctx context.Context) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := q.post(ctx, "/v1/query")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return openRows(resp.Body)
}

// maxControlLine bounds one JSON control line of a stream. The end line
// carries the plan explanation, the only one that grows with the query.
const maxControlLine = 1 << 20

// openRows reads the stream's header line and returns the cursor over
// what follows. It owns body from here on.
func openRows(body io.ReadCloser) (*Rows, error) {
	r := &Rows{body: body, br: bufio.NewReader(body)}
	line, err := r.readLine()
	switch {
	case err != nil:
	case line.Error != "":
		err = fmt.Errorf("wlpm client: %s", line.Error)
	case line.Header == nil:
		err = fmt.Errorf("wlpm client: stream did not open with a header")
	case line.Header.RecordSize <= 0 || line.Header.RecordSize > server.MaxFrameBytes:
		err = fmt.Errorf("wlpm client: header announces a record size of %d bytes", line.Header.RecordSize)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	r.recSize = line.Header.RecordSize
	return r, nil
}

// Rows is the remote streaming cursor, mirroring wlpm.Rows: Next /
// Scan / Record / Err / Close, plus Explain once the stream is drained.
// Like its in-process counterpart it is single-owner.
type Rows struct {
	mu      sync.Mutex
	body    io.ReadCloser
	br      *bufio.Reader
	recSize int
	frame   []byte // the frame in hand; its buffer is reused frame to frame
	pos     int    // offset in frame of the record after rec
	rec     []byte // the current record, a slice of frame; nil when there is none
	got     int64  // records received in frames so far
	line    []byte // a control line longer than br's buffer, assembled
	end     *server.End
	err     error
	closed  bool
}

// readLine reads and decodes one control line. A body that ends where a
// line should start — or inside one — is a truncated stream.
func (r *Rows) readLine() (server.Line, error) {
	var line server.Line
	text, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull { // longer than br's buffer: assemble it
		r.line = r.line[:0]
		for err == bufio.ErrBufferFull && len(r.line) <= maxControlLine {
			r.line = append(r.line, text...)
			text, err = r.br.ReadSlice('\n')
		}
		if r.line = append(r.line, text...); len(r.line) > maxControlLine {
			return line, fmt.Errorf("wlpm client: control line over %d bytes", maxControlLine)
		}
		text = r.line
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return line, err
	}
	if err := json.Unmarshal(text, &line); err != nil {
		return line, fmt.Errorf("wlpm client: bad control line %.64q: %w", text, err)
	}
	return line, nil
}

// Next advances to the next record; false on end of stream or error.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pos == len(r.frame) { // frame used up, none read yet, or closed
		r.rec = nil
		if r.err != nil || r.end != nil || r.closed {
			return false
		}
		if r.err = r.readFrameLocked(); r.err != nil || r.end != nil {
			return false
		}
	}
	r.rec = r.frame[r.pos : r.pos+r.recSize]
	r.pos += r.recSize
	return true
}

// readFrameLocked reads the next control line and the frame it
// announces into r.frame, or sets r.end at the end line. The caller
// holds r.mu.
func (r *Rows) readFrameLocked() error {
	r.frame, r.pos = r.frame[:0], 0
	line, err := r.readLine()
	switch {
	case err != nil:
		return err
	case line.Batch > 0:
		if line.Batch > server.MaxFrameBytes/r.recSize {
			return fmt.Errorf("wlpm client: frame of %d records of %d bytes is over the %d-byte frame limit",
				line.Batch, r.recSize, server.MaxFrameBytes)
		}
		n := line.Batch * r.recSize
		if cap(r.frame) < n {
			r.frame = make([]byte, 0, n)
		}
		if _, err := io.ReadFull(r.br, r.frame[:n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		r.frame = r.frame[:n]
		r.got += int64(line.Batch)
		return nil
	case line.End != nil:
		if line.End.Rows != r.got {
			return fmt.Errorf("wlpm client: end line counts %d rows, frames carried %d", line.End.Rows, r.got)
		}
		r.end = line.End
		return nil
	case line.Error != "":
		return fmt.Errorf("wlpm client: %s", line.Error)
	default:
		return fmt.Errorf("wlpm client: control line is not batch, end or error")
	}
}

// Record returns the current record. The slice is owned by the cursor
// and only valid until the next call to Next; copy to retain.
func (r *Rows) Record() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// RecordSize is the byte width of the stream's records.
func (r *Rows) RecordSize() int { return r.recSize }

// Scan copies the current record's attributes into dsts (*uint64 each),
// or the whole record into a single *[]byte — the in-process contract.
func (r *Rows) Scan(dsts ...any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil {
		return fmt.Errorf("wlpm client: Scan called without a successful Next")
	}
	if len(dsts) == 1 {
		if p, ok := dsts[0].(*[]byte); ok {
			*p = append((*p)[:0], r.rec...)
			return nil
		}
	}
	if len(dsts)*8 > len(r.rec) {
		return fmt.Errorf("wlpm client: Scan of %d attributes from a %d-byte record", len(dsts), len(r.rec))
	}
	for i, d := range dsts {
		p, ok := d.(*uint64)
		if !ok {
			return fmt.Errorf("wlpm client: Scan destination %d is %T, want *uint64 or a single *[]byte", i, d)
		}
		*p = binary.LittleEndian.Uint64(r.rec[i*8:])
	}
	return nil
}

// Err reports the first error hit by the stream (nil after a clean end).
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Rows is the server-reported row count, available after a clean end.
func (r *Rows) Rows() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end == nil {
		return 0, false
	}
	return r.end.Rows, true
}

// Explain returns the compiled plan (with actuals), available after the
// stream ends cleanly; nil before.
func (r *Rows) Explain() *server.End {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.end
}

// Close tears the stream down. Closing before the end line is a client
// disconnect: the server cancels the query's cursor, releasing its
// grant and temporaries.
func (r *Rows) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.frame, r.pos, r.rec = nil, 0, nil
	return r.body.Close()
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

func decodeError(resp *http.Response) error {
	var e server.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("wlpm client: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("wlpm client: HTTP %d", resp.StatusCode)
}
