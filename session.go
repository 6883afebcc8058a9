package wlpm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wlpm/internal/broker"
	"wlpm/internal/exec"
	"wlpm/internal/storage"
)

// Concurrency façade: Sessions are the unit of admission control. A
// Session is a lightweight handle on the System whose queries request
// working-memory grants from the System's broker before they are
// planned — the physical planner prices every plan at the granted
// budget — and release them when their cursor closes or their context
// is cancelled. Many sessions may run queries concurrently on one
// System; the broker guarantees their grants never sum past the
// System-wide budget (WithMemoryBudget).
//
//	sess := sys.Session(wlpm.WithSessionBudget(8<<20))
//	rows, err := sess.Query(fact).Filter(pred).OrderBy().Rows(ctx)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var key uint64
//	    _ = rows.Scan(&key)
//	}
//	err = rows.Err()

// AdmissionPolicy selects how a session's queries behave when their
// grant request does not fit the free system budget.
type AdmissionPolicy = broker.Policy

const (
	// AdmitBlock queues the query until memory frees (or its context is
	// cancelled). The default.
	AdmitBlock = broker.Block
	// AdmitFailFast fails the query immediately with ErrAdmission.
	AdmitFailFast = broker.FailFast
)

// ErrAdmission is returned by fail-fast sessions when the requested
// memory is not free.
var ErrAdmission = broker.ErrAdmission

// ErrSessionClosed is returned by queries started on a closed session.
var ErrSessionClosed = errors.New("wlpm: session is closed")

// SessionOption configures System.Session.
type SessionOption func(*Session)

// WithSessionBudget sets the per-query working-memory grant the
// session's queries request from the broker (default: a quarter of the
// System budget, so four default sessions run concurrently without
// queueing). The planner prices each query's plan at this budget.
func WithSessionBudget(bytes int64) SessionOption {
	return func(s *Session) { s.budget = bytes }
}

// WithAdmission sets the session's admission policy (default AdmitBlock).
func WithAdmission(p AdmissionPolicy) SessionOption {
	return func(s *Session) { s.policy = p }
}

// WithTenant labels the session with a tenant name. The label prefixes
// the session's collection namespace (so the collections of one tenant's
// sessions are recognizable on the device), identifies the session in
// server-side metrics, and is the tenant the broker admits its queries
// under: queries queue FIFO within a label and weighted-fair across
// labels. In-process sessions admit at weight 1; unlabelled sessions
// share the anonymous tenant.
func WithTenant(name string) SessionOption {
	return func(s *Session) { s.tenant = name }
}

// Session is one caller's handle on the System for concurrent query
// execution. Sessions are cheap (no goroutines, no device state); create
// one per logical client. A Session's methods are safe for concurrent
// use, but each Query/Rows it produces remains single-owner.
type Session struct {
	sys    *System
	id     int64
	tenant string
	weight int // admission weight; the server sets its tenant's, below 1 counts as 1
	budget int64
	policy AdmissionPolicy
	closed atomic.Bool
}

// sessionSeq numbers sessions so their collection namespaces are
// disjoint even across tenants sharing a name.
var sessionSeq atomic.Int64

// Session opens a session on the system.
func (s *System) Session(opts ...SessionOption) *Session {
	se := &Session{sys: s, id: sessionSeq.Add(1), policy: AdmitBlock}
	se.budget = s.mem.Total() / 4
	if se.budget < 1 {
		se.budget = 1
	}
	for _, o := range opts {
		o(se)
	}
	return se
}

// Budget is the per-query grant this session requests.
func (se *Session) Budget() int64 { return se.budget }

// Policy is the session's admission policy.
func (se *Session) Policy() AdmissionPolicy { return se.policy }

// Tenant is the session's tenant label ("" when unset).
func (se *Session) Tenant() string { return se.tenant }

// Namespace is the prefix of every collection this session creates:
// unique per session, so concurrent sessions (and therefore tenants)
// materializing the same plan never collide on Create names.
func (se *Session) Namespace() string {
	if se.tenant != "" {
		return fmt.Sprintf("%s.s%d.", se.tenant, se.id)
	}
	return fmt.Sprintf("s%d.", se.id)
}

// Create makes a benchmark-schema collection inside the session's
// namespace: the given name is prefixed with Namespace, so two sessions
// may both Create("result") — materializing the same plan concurrently —
// without colliding on the factory's unique-name rule. Use it for the
// output collections of RunCtx/RunMaterializedCtx in concurrent code;
// System.Create remains the way to make shared, globally-named tables.
func (se *Session) Create(name string) (Collection, error) {
	return se.CreateSized(name, RecordSize)
}

// CreateSized is Create with a custom record size (query outputs are
// often projections narrower than the benchmark schema).
func (se *Session) CreateSized(name string, recordSize int) (Collection, error) {
	if se.closed.Load() {
		return nil, ErrSessionClosed
	}
	return se.sys.fac.Create(se.Namespace()+name, recordSize)
}

// Query starts a plan with a scan of c, bound to this session: its
// Rows/RunCtx executions are admitted through the memory broker.
func (se *Session) Query(c Collection) *Query {
	return &Query{sess: se, plan: exec.Table(c)}
}

// ParseQuery parses the plan DSL of cmd/wlquery (see that command's
// documentation for the grammar), resolving table names via lookup and
// binding the resulting query to this session.
func (se *Session) ParseQuery(src string, lookup func(name string) (Collection, error)) (*Query, error) {
	p, err := exec.ParsePlan(src, func(name string) (storage.Collection, error) { return lookup(name) })
	if err != nil {
		return nil, err
	}
	return &Query{sess: se, plan: p}, nil
}

// Close marks the session closed; queries started afterwards fail with
// ErrSessionClosed. Grants already held by open cursors are unaffected —
// they release on cursor Close as usual.
func (se *Session) Close() error {
	se.closed.Store(true)
	return nil
}

// acquire requests this session's grant from the broker under the
// session's tenant, weight and admission policy.
func (se *Session) acquire(ctx context.Context) (*broker.Grant, error) {
	if se == nil {
		return nil, fmt.Errorf("wlpm: query has no session (construct it via Session.Query or Session.ParseQuery)")
	}
	if se.closed.Load() {
		return nil, ErrSessionClosed
	}
	return se.sys.mem.AcquireAs(ctx, se.tenant, se.weight, se.budget, se.policy)
}

// CollectionLookup adapts a fixed name→collection map to the lookup
// function ParseQuery takes — a convenience for CLIs and tests.
func CollectionLookup(cols map[string]Collection) func(name string) (Collection, error) {
	return func(name string) (Collection, error) {
		c, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", name)
		}
		return c, nil
	}
}
