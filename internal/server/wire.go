package server

import "wlpm/internal/exec"

// Wire types of the /v1 protocol. POST /v1/query and /v1/explain take a
// QueryRequest; /v1/explain answers with one ExplainResponse document
// and /v1/metrics with one Metrics document, both plain JSON.
//
// A /v1/query answer is a stream of JSON control lines — one Line per
// "\n"-terminated text line — with the records themselves in binary
// frames between them, so the body is not line-only text:
//
//	{"header":{"record_size":R}}   exactly once, first
//	{"batch":N}                    N ≥ 1, followed immediately by exactly
//	<N×R bytes>                    N×R raw record bytes (no terminator);
//	                               any number of frames
//	{"end":{...}}                  terminal on success (row count + explain)
//	{"error":"..."}                terminal on failure
//
// A frame's bytes are the engine's records verbatim, concatenated in
// stream order, which is what makes remote results byte-identical to
// in-process execution. The server fills each frame with as many whole
// records as fit frameTarget bytes and flushes once per frame; frame
// boundaries mean nothing else. A frame never exceeds MaxFrameBytes,
// the size a client may refuse to buffer.

// MaxFrameBytes bounds N×R of one frame. The server stays under it by
// construction; the client checks it before allocating for a frame.
const MaxFrameBytes = 16 << 20

// frameTarget is the payload size the server fills a frame to before
// flushing it: large enough that per-frame costs (control line, flush,
// chunk header, syscalls) vanish per row, small enough that the first
// rows of a long stream leave promptly. A record wider than the target
// travels alone in its frame.
const frameTarget = 64 << 10

// QueryRequest is the body of POST /v1/query and POST /v1/explain.
type QueryRequest struct {
	// Plan is the query in the plan DSL (see cmd/wlquery).
	Plan string `json:"plan"`
}

// Line is one control line of a query response stream. Exactly one of
// the fields is set.
type Line struct {
	Header *Header `json:"header,omitempty"`
	// Batch announces a frame: that many records follow the line as raw
	// bytes.
	Batch int    `json:"batch,omitempty"`
	End   *End   `json:"end,omitempty"`
	Error string `json:"error,omitempty"`
}

// Header opens a query stream.
type Header struct {
	// RecordSize is the fixed byte width of every record of the stream.
	RecordSize int `json:"record_size"`
}

// End closes a successful query stream.
type End struct {
	Rows    int64         `json:"rows"`
	Explain *exec.Explain `json:"explain,omitempty"`
}

// ExplainResponse is the body of a POST /v1/explain answer.
type ExplainResponse struct {
	Explain *exec.Explain `json:"explain"`
}

// ErrorResponse is the JSON body of non-streaming error answers.
type ErrorResponse struct {
	Error string `json:"error"`
}
