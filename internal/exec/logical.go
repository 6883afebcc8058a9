package exec

import (
	"fmt"

	"wlpm/internal/joins"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// Plan is a logical query plan: what to compute, without physical
// algorithm choices. Build one with Table and the fluent methods, then
// hand it to Compile — the physical planner fills in the sort and join
// algorithms (and their write-intensity knobs) from the cost model,
// unless a *With method pinned a fixed algorithm.
//
// Construction errors (nil inputs, bad attribute numbers) are deferred:
// they surface from Compile, so call chains stay unconditional.
type Plan struct {
	kind  planKind
	col   storage.Collection // scan
	pred  Predicate          // filter
	attrs []int              // project
	n     int                // limit
	attr  int                // group-by aggregate attribute
	hint  int                // group-by distinct-groups estimate (0 = unknown)
	sortA sorts.Algorithm    // pinned sort (order-by, group-by); nil = planner's choice
	joinA joins.Algorithm    // pinned join; nil = planner's choice

	left, right *Plan
	err         error
}

type planKind int

const (
	planScan planKind = iota
	planFilter
	planProject
	planJoin
	planGroupBy
	planOrderBy
	planLimit
)

// Table starts a plan: a scan of c.
func Table(c storage.Collection) *Plan {
	p := &Plan{kind: planScan, col: c}
	if c == nil {
		p.err = fmt.Errorf("exec: Table(nil)")
	}
	return p
}

func (p *Plan) derive(kind planKind) *Plan {
	d := &Plan{kind: kind, left: p, err: p.err}
	// A group hint survives stages that preserve the key domain and the
	// group count (an upper bound after a filter), so it reaches the
	// nearest group-by above the node it annotated. Shape-changing
	// stages (project, join, group-by) invalidate it.
	switch kind {
	case planFilter, planLimit, planOrderBy:
		d.hint = p.hint
	}
	return d
}

// Filter keeps the records satisfying pred.
func (p *Plan) Filter(pred Predicate) *Plan {
	d := p.derive(planFilter)
	d.pred = pred
	return d
}

// Project keeps the chosen 8-byte attributes, in order.
func (p *Plan) Project(attrs ...int) *Plan {
	d := p.derive(planProject)
	d.attrs = append([]int(nil), attrs...)
	return d
}

// Join equi-joins p (build side — put the smaller input here) with
// right on the key attributes; the planner picks the algorithm.
func (p *Plan) Join(right *Plan) *Plan { return p.JoinWith(right, nil) }

// JoinWith is Join with a pinned algorithm (nil defers to the planner).
func (p *Plan) JoinWith(right *Plan, a joins.Algorithm) *Plan {
	d := p.derive(planJoin)
	d.joinA = a
	d.right = right
	if right == nil {
		d.err = fmt.Errorf("exec: Join(nil)")
	} else if d.err == nil {
		d.err = right.err
	}
	return d
}

// GroupBy groups by the key attribute and aggregates attr
// (count/sum/min/max); the planner picks hash vs sort-based execution
// and the sort algorithm.
func (p *Plan) GroupBy(attr int) *Plan { return p.GroupByWith(attr, nil) }

// GroupByWith is GroupBy with a pinned sort algorithm (nil defers to
// the planner; pinning forces the sort-based operator).
func (p *Plan) GroupByWith(attr int, a sorts.Algorithm) *Plan {
	d := p.derive(planGroupBy)
	d.attr = attr
	d.sortA = a
	return d
}

// GroupHint tells the planner how many distinct groups the nearest
// group-by above p should expect (it has no value statistics of its
// own). The hint survives filters, limits and order-bys but not
// shape-changing stages (project, join, group-by). Without a hint (or
// statistics) the planner assumes every record is its own group and
// credits the fold nothing.
func (p *Plan) GroupHint(groups int) *Plan {
	d := *p
	d.hint = groups
	return &d
}

// OrderBy sorts by the record total order (key attribute first); the
// planner picks the algorithm and its knob.
func (p *Plan) OrderBy() *Plan { return p.OrderByWith(nil) }

// OrderByWith is OrderBy with a pinned algorithm (nil defers to the
// planner).
func (p *Plan) OrderByWith(a sorts.Algorithm) *Plan {
	d := p.derive(planOrderBy)
	d.sortA = a
	return d
}

// Limit keeps the first n records.
func (p *Plan) Limit(n int) *Plan {
	d := p.derive(planLimit)
	d.n = n
	if n < 0 && d.err == nil {
		d.err = fmt.Errorf("exec: Limit(%d)", n)
	}
	return d
}

// Err reports a deferred construction error, if any.
func (p *Plan) Err() error { return p.err }
