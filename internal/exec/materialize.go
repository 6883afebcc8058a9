package exec

import (
	"context"
	"fmt"

	"wlpm/internal/storage"
)

// Materialize is an explicit pipeline breaker: it drains its child into
// a temporary collection at Open and then streams the temporary. It is
// what the engine's pipelining avoids — the planner's
// MaterializeEveryStep mode inserts one above every streaming operator
// (blocking operators already materialize their own output once) to
// model the naive compose-by-collections execution that the pipelined
// plan's cacheline-write count is measured against. It claims no memory
// share (it holds no working state beyond one record).
type Materialize struct {
	child Operator
	stored
}

// NewMaterialize returns a materialization barrier over child.
func NewMaterialize(child Operator) *Materialize { return &Materialize{child: child} }

func (m *Materialize) Name() string         { return fmt.Sprintf("Materialize(%s)", m.child.Name()) }
func (m *Materialize) RecordSize() int      { return m.child.RecordSize() }
func (m *Materialize) Children() []Operator { return []Operator{m.child} }
func (m *Materialize) consumesMemory() bool { return false }

func (m *Materialize) Open(ctx context.Context, ec *Ctx) (storage.Iterator, error) {
	it, err := m.child.Open(ctx, ec)
	if err != nil {
		return nil, err
	}
	return m.fill(ctx, ec, "mat", m.RecordSize(), drainOf(it))
}

func (m *Materialize) Close() error { return m.drop(m.child) }
