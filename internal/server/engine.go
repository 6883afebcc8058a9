// Package server is the network-facing multi-tenant query service: an
// HTTP front over the session/broker/cursor machinery. It accepts the
// plan DSL over POST /v1/query and streams the result back as binary
// record frames between JSON control lines (the grammar is in wire.go),
// with backpressure: a stalled or disconnected client cancels the
// cursor through the ordinary context plumbing, releasing its memory
// grant and temporaries. It returns compiled-plan explanations from
// POST /v1/explain and exposes broker, device and per-tenant counters
// on GET /v1/metrics, both as plain JSON.
//
// Each authenticated tenant maps to one engine session with its own
// working-memory budget, admission policy and weight. The server adds no
// queue of its own: the memory broker's admission queue, weighted-fair
// across tenants, decides whose query runs next, so one tenant's burst
// cannot starve the others.
//
// The package talks to the engine through the Engine interface below —
// implemented by the wlpm façade (System.ServeEngine) and injected at
// construction — so it layers over the façade without importing it.
package server

import (
	"context"

	"wlpm/internal/broker"
	"wlpm/internal/exec"
	"wlpm/internal/pmem"
)

// Engine is the query engine the server fronts.
type Engine interface {
	// OpenSession creates the execution session of tenant t: its
	// queries request grants of t.Budget (0 = engine default) under
	// t's name and weight, blocking or fail-fast as t.FailFast says.
	OpenSession(t Tenant) (EngineSession, error)
	// BrokerStats snapshots the memory broker's admission counters.
	BrokerStats() BrokerStats
	// DeviceStats snapshots the simulated device's counters.
	DeviceStats() pmem.Stats
}

// BrokerStats is the broker's admission telemetry: the rationed total,
// the outstanding grants, the high-water mark and the depth of the one
// admission queue. Each tenant's part of that queue (Queues) is rendered
// in its Metrics.Tenants entry instead.
type BrokerStats struct {
	Total     int64                   `json:"total_bytes"`
	InUse     int64                   `json:"in_use_bytes"`
	HighWater int64                   `json:"high_water_bytes"`
	Waiting   int                     `json:"waiting"`
	Queues    map[string]broker.Queue `json:"-"`
}

// EngineSession is one tenant's handle on the engine. Implementations
// must be safe for concurrent use — the server runs many requests of
// one tenant at a time.
type EngineSession interface {
	// Query parses the plan DSL against the server's table catalog.
	Query(dsl string) (EngineQuery, error)
	Close() error
}

// EngineQuery is one parsed query, ready to explain or execute.
type EngineQuery interface {
	// Explain compiles the plan at the session's grant size without
	// running it.
	Explain() (*exec.Explain, error)
	// Rows admits the query through the memory broker and returns its
	// streaming cursor. Cancelling ctx aborts both the admission wait
	// and the stream, releasing the grant and destroying temporaries.
	Rows(ctx context.Context) (RowStream, error)
}

// RowStream is a streaming result cursor, the server-side face of the
// façade's Rows.
type RowStream interface {
	Next() bool
	// Record is the current record; valid until the following Next.
	Record() []byte
	RecordSize() int
	Err() error
	// Explain describes the compiled plan (with actuals after the
	// stream is drained).
	Explain() *exec.Explain
	Close() error
}
