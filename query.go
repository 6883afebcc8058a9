package wlpm

import (
	"context"

	"wlpm/internal/broker"
	"wlpm/internal/exec"
)

// Query-engine façade: the fluent builder over internal/exec. A Query is
// a logical plan; Rows (or RunCtx) compiles it with the cost-model
// physical planner — which picks the write-limited sort and join
// variants (and places their intensity knobs) from the device λ, the
// per-stage share of the session's broker-granted memory and the
// cardinality estimates of the internal/stats catalog (filter
// selectivities, group counts, join sizes and join order; collected
// automatically on first use, or explicitly with System.Collect) — and
// executes it as a pipeline. Use the *With variants to pin an algorithm
// instead.
//
//	q := sess.Query(dim).Join(sess.Query(fact)).
//	        Project(0, 1, 12, 13, 14, 15, 16, 17, 18, 19).
//	        GroupBy(3).OrderBy().Limit(10)
//	rows, err := q.Rows(ctx)

// Predicate compares one 8-byte attribute against a constant; see the
// comparison constants below.
type Predicate = exec.Predicate

// QueryExplain describes a compiled physical plan: the operator tree,
// the stage budget split, and each cost-model algorithm choice.
type QueryExplain = exec.Explain

// Comparison operators for Filter predicates.
const (
	CmpEq = exec.Eq
	CmpNe = exec.Ne
	CmpLt = exec.Lt
	CmpLe = exec.Le
	CmpGt = exec.Gt
	CmpGe = exec.Ge
)

// Query is a logical query plan under construction, started from a
// Session (Session.Query, Session.ParseQuery). It executes through the
// memory broker: Rows and RunCtx request the session's grant before
// planning.
type Query struct {
	sess *Session
	plan *exec.Plan
}

// derive continues the fluent chain with a new plan node, preserving the
// session binding.
func (q *Query) derive(p *exec.Plan) *Query {
	return &Query{sess: q.sess, plan: p}
}

// Filter keeps records satisfying pred.
func (q *Query) Filter(pred Predicate) *Query {
	return q.derive(q.plan.Filter(pred))
}

// Project keeps the chosen 8-byte attributes, in order.
func (q *Query) Project(attrs ...int) *Query {
	return q.derive(q.plan.Project(attrs...))
}

// Join equi-joins q (the build side — put the smaller input here) with
// right on the key attributes; the planner picks the algorithm.
func (q *Query) Join(right *Query) *Query { return q.JoinWith(right, nil) }

// JoinWith is Join with a pinned algorithm. A nil right surfaces as a
// deferred error from Run/Explain, like every other construction error.
func (q *Query) JoinWith(right *Query, a JoinAlgorithm) *Query {
	var rp *exec.Plan
	if right != nil {
		rp = right.plan
	}
	return q.derive(q.plan.JoinWith(rp, a))
}

// GroupBy groups by the key attribute and aggregates attr into the
// GroupAttr* result slots; the planner picks between folding the input
// in memory (see GroupHint) and a write-limited sort of it.
func (q *Query) GroupBy(attr int) *Query {
	return q.derive(q.plan.GroupBy(attr))
}

// GroupByWith is GroupBy with a pinned sort algorithm.
func (q *Query) GroupByWith(attr int, a SortAlgorithm) *Query {
	return q.derive(q.plan.GroupByWith(attr, a))
}

// GroupHint tells the planner how many distinct groups to expect from
// the next GroupBy, overriding the collected column statistics: it
// prices the in-memory fold. With statistics available (see
// System.Collect and auto-collection) the hint is optional, and an
// underestimated hint never fails the query — the fold evicts runs and
// merges them.
func (q *Query) GroupHint(groups int) *Query {
	return q.derive(q.plan.GroupHint(groups))
}

// OrderBy sorts by the record total order (key attribute first); the
// planner picks the algorithm and its write-intensity knob.
func (q *Query) OrderBy() *Query {
	return q.derive(q.plan.OrderBy())
}

// OrderByWith is OrderBy with a pinned algorithm.
func (q *Query) OrderByWith(a SortAlgorithm) *Query {
	return q.derive(q.plan.OrderByWith(a))
}

// Limit keeps the first n records.
func (q *Query) Limit(n int) *Query {
	return q.derive(q.plan.Limit(n))
}

// compile builds the execution context — the plan memory budget the
// engine splits across blocking stages, the system parallelism, the
// statistics catalog — and compiles the plan with the physical planner.
func (q *Query) compile(memoryBudget int64, opts exec.CompileOptions) (exec.Operator, *QueryExplain, *exec.Ctx, error) {
	sys := q.sess.sys
	ec := exec.NewCtx(sys.fac, memoryBudget, sys.par)
	ec.BatchSize = sys.batch
	ec.Stats = sys.stats
	root, ex, err := exec.CompileWith(ec, q.plan, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return root, ex, ec, nil
}

// runInto compiles the plan at the given budget and executes it under
// ctx, appending the result to out (blocking roots emit directly). The
// grant, when non-nil, is released on return.
func (q *Query) runInto(ctx context.Context, out Collection, memoryBudget int64, grant *broker.Grant, opts exec.CompileOptions) (*QueryExplain, error) {
	defer grant.Release()
	root, ex, ec, err := q.compile(memoryBudget, opts)
	if err != nil {
		return nil, err
	}
	err = exec.RunCtx(ctx, ec, root, out)
	ex.Rerender() // Open-time re-planning may have swapped algorithms
	return ex, err
}

// RunCtx executes the plan under ctx with the session's broker-granted
// memory budget, appending the result to out, and returns the plan
// explanation (choices carry estimated and actual rows after the run).
// Cancellation aborts the run mid-operator, destroys its temporaries and
// releases the grant. Prefer Rows when the caller wants to stream the
// result instead of materializing it.
func (q *Query) RunCtx(ctx context.Context, out Collection) (*QueryExplain, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := q.sess.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return q.runInto(ctx, out, g.Bytes(), g, exec.CompileOptions{})
}

// RunMaterializedCtx is RunCtx with a materialization barrier after
// every operator (the naive-composition baseline).
func (q *Query) RunMaterializedCtx(ctx context.Context, out Collection) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := q.sess.acquire(ctx)
	if err != nil {
		return err
	}
	_, err = q.runInto(ctx, out, g.Bytes(), g, exec.CompileOptions{MaterializeEveryStep: true})
	return err
}

// ExplainGranted compiles the plan without running it and reports the
// physical operator tree and the planner's algorithm choices at the
// session's per-query grant size — the budget Rows and RunCtx will
// actually plan with.
func (q *Query) ExplainGranted() (*QueryExplain, error) {
	if q.sess == nil {
		return nil, ErrSessionClosed
	}
	_, ex, _, err := q.compile(q.sess.Budget(), exec.CompileOptions{})
	return ex, err
}
