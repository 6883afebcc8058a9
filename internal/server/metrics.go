package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlpm/internal/broker"
	"wlpm/internal/pmem"
)

// tenantCounters accumulates one tenant's traffic. All fields are
// atomics: the streaming handlers bump them without a lock.
type tenantCounters struct {
	queries   atomic.Int64 // accepted (parsed, past auth)
	completed atomic.Int64 // streamed to the end marker
	errored   atomic.Int64 // failed after acceptance (parse errors excluded)
	cancelled atomic.Int64 // aborted by client disconnect or shutdown
	rows      atomic.Int64
	bytes     atomic.Int64 // result payload bytes (records, pre-encoding)
	active    atomic.Int64 // streaming right now
	admitWait atomic.Int64 // ns from the Rows call to the open cursor
}

// TenantMetrics is the wire form of one tenant's counters. Queued and
// GateWaitMs are the tenant's part of the broker's admission queue: the
// requests in it now and the total time they spent in it. AdmitWaitMs
// runs from each query's Rows call to its open cursor, so it covers that
// queue wait, the compile and every blocking stage.
type TenantMetrics struct {
	Queries     int64 `json:"queries"`
	Completed   int64 `json:"completed"`
	Errors      int64 `json:"errors"`
	Cancelled   int64 `json:"cancelled"`
	Rows        int64 `json:"rows"`
	Bytes       int64 `json:"bytes"`
	Active      int64 `json:"active"`
	Queued      int   `json:"queued"`
	GateWaitMs  int64 `json:"gate_wait_ms"`
	AdmitWaitMs int64 `json:"admit_wait_ms"`
	Weight      int   `json:"weight"`
}

// metricsRegistry holds the per-tenant counters, keyed by tenant name.
type metricsRegistry struct {
	mu      sync.Mutex
	tenants map[string]*tenantCounters
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{tenants: make(map[string]*tenantCounters)}
}

func (m *metricsRegistry) tenant(name string) *tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// snapshot renders every tenant's counters, merging in the broker's
// queues and the configured weights. Both inputs are plain data
// computed before the call: running a caller-supplied callback under
// m.mu would hide a lock edge (metricsRegistry.mu → whatever the
// callback takes) behind an indirect call, where no reader can check
// it against the lock hierarchy (INVARIANTS.md).
func (m *metricsRegistry) snapshot(queues map[string]broker.Queue, weights map[string]int) map[string]TenantMetrics {
	m.mu.Lock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]TenantMetrics, len(names))
	for _, name := range names {
		tc := m.tenants[name]
		out[name] = TenantMetrics{
			Queries:     tc.queries.Load(),
			Completed:   tc.completed.Load(),
			Errors:      tc.errored.Load(),
			Cancelled:   tc.cancelled.Load(),
			Rows:        tc.rows.Load(),
			Bytes:       tc.bytes.Load(),
			Active:      tc.active.Load(),
			Queued:      queues[name].Waiting,
			GateWaitMs:  int64(queues[name].Waited / time.Millisecond),
			AdmitWaitMs: tc.admitWait.Load() / int64(time.Millisecond),
			Weight:      weightOf(weights, name),
		}
	}
	m.mu.Unlock()
	return out
}

// weightOf reads a tenant's configured weight with the broker's floor
// of one applied.
func weightOf(weights map[string]int, name string) int {
	if w := weights[name]; w > 1 {
		return w
	}
	return 1
}

// DeviceMetrics is the wire form of the simulated device counters.
type DeviceMetrics struct {
	Reads        uint64 `json:"cacheline_reads"`
	Writes       uint64 `json:"cacheline_writes"`
	ReadOps      uint64 `json:"read_ops"`
	WriteOps     uint64 `json:"write_ops"`
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	SimIOMs      int64  `json:"sim_io_ms"`
	SimOverlapMs int64  `json:"sim_io_overlap_ms"`
	SoftMs       int64  `json:"soft_ms"`
}

func deviceMetrics(s pmem.Stats) DeviceMetrics {
	return DeviceMetrics{
		Reads:        s.Reads,
		Writes:       s.Writes,
		ReadOps:      s.ReadOps,
		WriteOps:     s.WriteOps,
		BytesRead:    s.BytesRead,
		BytesWritten: s.BytesWritten,
		SimIOMs:      int64(s.SimIOTime / time.Millisecond),
		SimOverlapMs: int64(s.SimIOOverlap / time.Millisecond),
		SoftMs:       int64(s.SoftTime / time.Millisecond),
	}
}

// Metrics is the GET /v1/metrics document.
type Metrics struct {
	UptimeMs int64                    `json:"uptime_ms"`
	InFlight int64                    `json:"in_flight"`
	Broker   BrokerStats              `json:"broker"`
	Device   DeviceMetrics            `json:"device"`
	Tenants  map[string]TenantMetrics `json:"tenants"`
}
