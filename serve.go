package wlpm

import (
	"context"

	"wlpm/internal/server"
)

// Serving façade: ServeEngine adapts a System to the serving
// subsystem's Engine interface (internal/server; fronted by
// cmd/wlserved and spoken to by the client package). Each tenant the
// server opens becomes one Session — with its own working-memory
// budget, admission policy, admission weight and collection namespace,
// admitted under the tenant's name — so remote
// tenants get exactly the isolation in-process callers get, and remote
// query results are byte-identical to in-process execution of the same
// plan DSL.

// ServeEngine exposes the system to the query server over the given
// table catalog: remote plans resolve scan(T) against it by name.
func (s *System) ServeEngine(catalog map[string]Collection) server.Engine {
	return &serveEngine{sys: s, lookup: CollectionLookup(catalog)}
}

type serveEngine struct {
	sys    *System
	lookup func(name string) (Collection, error)
}

func (e *serveEngine) OpenSession(t server.Tenant) (server.EngineSession, error) {
	sess := e.sys.Session(WithTenant(t.Name))
	sess.weight = t.Weight
	if t.Budget > 0 {
		sess.budget = t.Budget
	}
	if t.FailFast {
		sess.policy = AdmitFailFast
	}
	return &serveSession{eng: e, sess: sess}, nil
}

func (e *serveEngine) BrokerStats() server.BrokerStats {
	m := e.sys.mem
	return server.BrokerStats{
		Total:     m.Total(),
		InUse:     m.InUse(),
		HighWater: m.HighWater(),
		Waiting:   m.Waiting(),
		Queues:    m.Queues(),
	}
}

func (e *serveEngine) DeviceStats() Stats { return e.sys.Stats() }

type serveSession struct {
	eng  *serveEngine
	sess *Session
}

func (ss *serveSession) Query(dsl string) (server.EngineQuery, error) {
	q, err := ss.sess.ParseQuery(dsl, ss.eng.lookup)
	if err != nil {
		return nil, err
	}
	return &serveQuery{q: q}, nil
}

func (ss *serveSession) Close() error { return ss.sess.Close() }

type serveQuery struct{ q *Query }

func (sq *serveQuery) Explain() (*QueryExplain, error) { return sq.q.ExplainGranted() }

func (sq *serveQuery) Rows(ctx context.Context) (server.RowStream, error) {
	rows, err := sq.q.Rows(ctx)
	if err != nil {
		return nil, err
	}
	return rows, nil
}
