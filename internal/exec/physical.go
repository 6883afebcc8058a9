package exec

import (
	"fmt"
	"math"
	"strings"

	"wlpm/internal/record"
	"wlpm/internal/stats"
)

// CompileOptions tunes physical planning.
type CompileOptions struct {
	// MaterializeEveryStep inserts a Materialize barrier above every
	// non-scan operator: the naive compose-by-collections execution the
	// pipelined plan is benchmarked against.
	MaterializeEveryStep bool
	// asWritten compiles the plan's joins as written: in the written
	// order, instead of letting the planner rebuild them
	// smallest-build-first from the cardinality estimates, and with whole
	// build records, instead of narrowing each build side to what the
	// chain above its join reads. Only this package's tests set it, to
	// price and run the written plan against the rewritten one.
	asWritten bool
	// shares, when set, replaces the allocator's split with these
	// per-stage shares (bytes, stage order). Only this package's tests
	// set it, to measure the planner's split against forced ones.
	shares []int64
}

var errNilPlan = fmt.Errorf("exec: nil plan")

// Choice records one physical algorithm decision for Explain. The planner
// fills the estimates at compile time; the blocking operator updates
// ActualRows and Cost (and, for non-pinned choices, Algorithm/Replanned)
// when its Open observes the materialized input.
type Choice struct {
	Operator   string  // "OrderBy", "GroupBy", "Join"
	Algorithm  string  // chosen algorithm with knobs, e.g. "SegS(0.31)"
	Pinned     bool    // true when the caller fixed the algorithm
	InputRows  int     // estimated input cardinality (left side for joins)
	ActualRows int     // input rows observed at Open; -1 before a run
	Buffers    float64 // estimated input size in buffers (t; joins also use v)
	RightBuf   float64 // v for joins, 0 otherwise
	Cost       float64 // predicted price in buffer-read units
	Share      int64   // the stage's memory share in bytes: Explain.StageShares[i], for the whole run
	Replanned  bool    // Open-time actuals changed the planner's algorithm
	Fed        bool    // the input was pushed into this stage's intake, not read where it lies: no input temp
}

// Explain describes the compiled physical plan. Choices are shared with
// the operator tree, so after a Run they also carry the actuals observed
// at Open time and the re-plans made from them; Root is the tree as
// compiled until Rerender refreshes it.
type Explain struct {
	Root        string  // the physical operator tree, root first
	RecordSize  int     // byte width of the plan's output records
	Stages      int     // blocking stages sharing the budget
	TotalBudget int64   // plan M in bytes
	StageShares []int64 // compile-time per-stage shares in bytes, stage order
	EvenSplit   bool    // no other split priced below the even one: StageShares hold it
	PlanCost    float64 // predicted plan cost at StageShares (buffer-read units)
	EvenCost    float64 // predicted plan cost at the even split
	Lambda      float64
	BatchSize   int  // records per operator pull (the vectorization window)
	Reordered   bool // the planner rebuilt a join chain smallest-build-first
	Choices     []*Choice
	// Elided notes each planner-owned order-by that compiled to no stage
	// because its input is in the record order already, and why.
	Elided []string `json:",omitempty"`

	root Operator
}

// Rerender refreshes Root from the operator tree. Whoever drives the run
// calls it once the blocking stages have opened: Open-time re-planning
// swaps algorithms inside the operators, and the plan line must name
// what ran, like the choice lines beneath it.
func (e *Explain) Rerender() {
	if e.root != nil { // a hand-built Explain has no tree to render
		e.Root = e.root.Name()
	}
}

// String renders the explanation for CLIs and examples.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan    %s\n", e.Root)
	split := "cost-driven"
	if e.EvenSplit {
		split = "even-split"
	}
	fmt.Fprintf(&b, "memory  %d B across %d blocking stage(s), %s shares %s (λ=%.1f, predicted %.4g vs %.4g even)\n",
		e.TotalBudget, e.Stages, split, fmtShares(e.StageShares), e.Lambda, e.PlanCost, e.EvenCost)
	if e.BatchSize > 0 {
		fmt.Fprintf(&b, "batch   %d records per operator pull\n", e.BatchSize)
	}
	if e.Reordered {
		fmt.Fprintf(&b, "joins   reordered smallest-build-first from the cardinality estimates (compensating projection restores the written column order)\n")
	}
	for _, note := range e.Elided {
		fmt.Fprintf(&b, "elided  %s\n", note)
	}
	for _, c := range e.Choices {
		origin := "cost model"
		if c.Pinned {
			origin = "pinned"
		}
		rows := fmt.Sprintf("est %d rows", c.InputRows)
		if c.ActualRows >= 0 {
			rows += fmt.Sprintf(", act %d", c.ActualRows)
		}
		var notes string
		if c.Replanned {
			notes += "; replanned at open"
		}
		if c.Fed {
			notes += "; fed, no input temp"
		}
		if c.RightBuf > 0 {
			fmt.Fprintf(&b, "choice  %-8s → %-14s (%s; t=%.0f v=%.0f buffers, %s, share %d B, est cost %.3g%s)\n",
				c.Operator, c.Algorithm, origin, c.Buffers, c.RightBuf, rows, c.Share, c.Cost, notes)
		} else {
			fmt.Fprintf(&b, "choice  %-8s → %-14s (%s; t=%.0f buffers, %s, share %d B, est cost %.3g%s)\n",
				c.Operator, c.Algorithm, origin, c.Buffers, rows, c.Share, c.Cost, notes)
		}
	}
	return b.String()
}

// fmtShares renders a share list as "[a+b+c]" bytes.
func fmtShares(shares []int64) string {
	if len(shares) == 0 {
		return "[—]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range shares {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteByte(']')
	return b.String()
}

// Compile turns a logical plan into a physical operator tree, consulting
// the cost model for every sort and join the plan left open: the device
// λ, the per-stage share of the context's memory budget, and bottom-up
// cardinality estimates — from the context's statistics provider when one
// is set, textbook defaults otherwise — select the algorithm and place
// its write-intensity knob.
func Compile(ctx *Ctx, p *Plan) (Operator, *Explain, error) {
	return CompileWith(ctx, p, CompileOptions{})
}

// CompileWith is Compile with options.
func CompileWith(ctx *Ctx, p *Plan, opts CompileOptions) (Operator, *Explain, error) {
	c, err := newCompiler(ctx, p, opts)
	if err != nil {
		return nil, nil, err
	}
	// Memory planning: price every blocking stage's cheapest
	// implementation as a function of its share and split the plan
	// budget at the step edges of those prices (the even split is the
	// allocator's first candidate and wins ties).
	bp := c.bp
	alloc := bp.allocate()
	if opts.shares != nil {
		alloc = Allocation{Shares: opts.shares, EvenCost: alloc.EvenCost}
		ms := make([]float64, len(opts.shares))
		for i, s := range opts.shares {
			ms[i] = allocBuffers(s, bp.blockSize)
		}
		for _, price := range bp.price(ms) {
			alloc.Cost += price
		}
	}
	var choices []*Choice
	for i, s := range c.stages {
		choices = append(choices, s.bind(alloc.Shares[i]))
	}
	stages := len(c.stages)
	if stages < 1 {
		stages = 1
	}
	ex := &Explain{
		Root:        c.root.Name(),
		RecordSize:  c.root.RecordSize(),
		Stages:      stages,
		TotalBudget: bp.total,
		StageShares: alloc.Shares,
		EvenSplit:   alloc.Even,
		PlanCost:    alloc.Cost,
		EvenCost:    alloc.EvenCost,
		Lambda:      bp.lambda,
		BatchSize:   ctx.PullSize(),
		Reordered:   c.reordered,
		Choices:     choices,
		Elided:      c.notes,
		root:        c.root,
	}
	return c.root, ex, nil
}

type compiler struct {
	opts      CompileOptions
	stats     stats.Provider
	blockSize int
	est       map[*Plan]planEstimate // estimate's memo, one entry per node
	root      Operator               // the built tree
	stages    []*stageAlloc          // blocking stages, build's post-order
	bp        *budgetPlan            // the stages' pricing inputs
	reordered bool
	notes     []string // why each elided order-by compiled to no stage, in build order: Explain.Elided
}

// newCompiler validates the inputs, applies the join-order and
// build-narrowing rewrites and builds the rewritten plan's operator tree:
// the returned compiler holds one priceable, not yet allocated stage per
// blocking operator of that tree.
func newCompiler(ctx *Ctx, p *Plan, opts CompileOptions) (*compiler, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, errNilPlan
	}
	if p.err != nil {
		return nil, p.err
	}
	c := &compiler{opts: opts, stats: ctx.Stats, blockSize: ctx.Factory.BlockSize(), est: map[*Plan]planEstimate{}}
	if !opts.asWritten {
		p = c.reorderJoins(p)
		if !opts.MaterializeEveryStep {
			p = c.narrowBuilds(p, false)
		}
	}
	root, from, err := c.build(p)
	if err != nil {
		return nil, err
	}
	// The stage the root streams from is the plan's result: only
	// filters, projections, limits and elided order-bys sit above it.
	if from >= 0 {
		c.stages[from].result = true
	}
	c.root = root
	c.bp = &budgetPlan{
		lambda:    ctx.Factory.Device().Lambda(),
		par:       parOf(ctx.Parallelism),
		reserves:  ctx.Factory.ReservesBlocks(),
		blockSize: c.blockSize,
		total:     ctx.MemoryBudget,
		stages:    c.stages,
	}
	for _, s := range c.stages {
		s.bp = c.bp
	}
	return c, nil
}

// breaker wraps op in a Materialize barrier in MaterializeEveryStep
// mode. Blocking operators are left alone — they already materialize
// their output once, exactly like the hand-wired compose-by-collections
// caller the mode models; wrapping them too would double-count their
// writes and flatter the pipelined comparison.
func (c *compiler) breaker(op Operator) Operator {
	if !c.opts.MaterializeEveryStep {
		return op
	}
	if m, ok := op.(memoryConsumer); ok && m.consumesMemory() {
		return op
	}
	return NewMaterialize(op)
}

// chainOf returns the chain a Filter or Project over child adds its step
// to, and the operator that stands for the step in the tree: child
// itself when it absorbs the step — a blocking producer that applies it
// where it emits, or the Stream of the steps beneath — and otherwise a
// new Stream over child (see chain.go for the placements). The
// materialize-everything reference mode absorbs nothing: every step gets
// a Stream and a barrier of its own.
func (c *compiler) chainOf(child Operator) (*chain, Operator) {
	if a, ok := child.(absorber); ok && !c.opts.MaterializeEveryStep {
		if ch := a.absorbed(); ch != nil {
			return ch, child
		}
	}
	s := &Stream{child: child}
	return &s.chain, c.breaker(s)
}

// addStage appends the blocking stage s, run by op, and returns its index.
func (c *compiler) addStage(s *stageAlloc, op Operator) int {
	s.node = op
	c.stages = append(c.stages, s)
	return len(c.stages) - 1
}

// build validates the node against its compiled children and
// instantiates its operator. It returns the operator and the index of
// the blocking stage its output streams from (-1 when it derives from
// base tables only). Each Sort and Join it makes adds its stage, in
// post-order, priced from the estimates and the shape of the tree beneath
// it (feeding, sourceWidth, narrow) and given its share and algorithm
// only once the allocator has split the budget (stageAlloc.bind).
func (c *compiler) build(p *Plan) (Operator, int, error) {
	switch p.kind {
	case planScan:
		return NewScan(p.col), -1, nil

	case planFilter:
		child, from, err := c.build(p.left)
		if err != nil {
			return nil, -1, err
		}
		if err := p.pred.validate(child.RecordSize()); err != nil {
			return nil, -1, err
		}
		ch, op := c.chainOf(child)
		ch.filter(p.pred)
		c.narrow(p, op, from)
		return op, from, nil

	case planProject:
		child, from, err := c.build(p.left)
		if err != nil {
			return nil, -1, err
		}
		if len(p.attrs) == 0 {
			return nil, -1, fmt.Errorf("exec: projection with no attributes")
		}
		for _, a := range p.attrs {
			if a < 0 || (a+1)*record.AttrSize > child.RecordSize() {
				return nil, -1, fmt.Errorf("exec: projected attribute a%d outside %d-byte record", a, child.RecordSize())
			}
		}
		ch, op := c.chainOf(child)
		ch.project(p.attrs)
		c.narrow(p, op, from)
		return op, from, nil

	case planLimit:
		child, from, err := c.build(p.left)
		if err != nil {
			return nil, -1, err
		}
		c.bound(child, p.n)
		return c.breaker(NewLimit(child, p.n)), from, nil

	case planOrderBy, planGroupBy:
		child, from, err := c.build(p.left)
		if err != nil {
			return nil, -1, err
		}
		in := c.estimate(p.left)
		s := &stageAlloc{
			op: "OrderBy", sortA: p.sortA,
			t: c.buffers(in.rows, child.RecordSize()), inRows: in.rows, tFrom: from,
		}
		attr := -1
		if p.kind == planOrderBy {
			if note, ok := c.elides(p, in.order); ok {
				c.notes = append(c.notes, note)
				return child, from, nil
			}
		} else {
			// Fail width mismatches at plan time so Explain never prices a
			// group-by that cannot execute.
			if child.RecordSize() != record.Size {
				return nil, -1, fmt.Errorf("exec: group-by needs %d-byte benchmark records, input emits %d (project first)",
					record.Size, child.RecordSize())
			}
			if p.attr < 0 || p.attr >= record.NumAttrs {
				return nil, -1, fmt.Errorf("exec: aggregate attribute a%d out of schema (0..%d)", p.attr, record.NumAttrs-1)
			}
			attr = p.attr
			est, groups := c.groupEstimate(p, in)
			s.op, s.groupEst, s.order, s.outBuf = "GroupBy", est, in.order, c.buffers(groups, record.Size)
		}
		c.feeding(s, child)
		op := &Sort{child: child, attr: attr, st: s}
		return c.breaker(op), c.addStage(s, op), nil

	case planJoin:
		left, from, err := c.build(p.left)
		if err != nil {
			return nil, -1, err
		}
		right, _, err := c.build(p.right)
		if err != nil {
			return nil, -1, err
		}
		lest, rest := c.estimate(p.left), c.estimate(p.right)
		lrec, rrec := left.RecordSize(), right.RecordSize()
		s := &stageAlloc{
			op: "Join", joinA: p.joinA, lrec: lrec, lsrc: sourceWidth(left), outBuf: c.buffers(c.estimate(p).rows, lrec+rrec),
			t: c.buffers(lest.rows, lrec), v: c.buffers(rest.rows, rrec),
			inRows: lest.rows, tFrom: from,
		}
		op := &Join{left: left, right: right, st: s}
		return c.breaker(op), c.addStage(s, op), nil
	}
	return nil, -1, fmt.Errorf("exec: unknown plan node %d", p.kind)
}

// feeding decides, from the tree beneath it, whether the order-by or
// group-by stage s over child may have its input pushed instead of
// stored (the fed home of a result, chain.go): the planner owns its
// sort, and either s is a group-by, whose folding intake is its
// in-memory aggregation, or what it reads exists only for it to read — a
// join's or group-by's result through whatever chain that absorbed, or a
// stream over a limit that would be drained into a pipe. Base tables, a
// sorted result and the views over either are on the device whatever s
// does (onDevice). A pinned sort asks for its algorithm's I/O over a
// stored input; the materialize-everything reference stores every step.
// The blocking producer, when there is one, is marked handed: from here
// on the consumer prices the result's home.
func (c *compiler) feeding(s *stageAlloc, child Operator) {
	if s.sortA != nil || c.opts.MaterializeEveryStep {
		return
	}
	if st, ok := child.(*Stream); ok {
		child = st.child
	}
	handed := false
	switch op := child.(type) {
	case *Join:
		handed = true
	case *Sort:
		handed = op.grouping()
	case *Limit:
		s.feedable = true
		return
	}
	if handed {
		c.stages[s.tFrom].handed = true
		s.feedable = true
		return
	}
	s.feedable = s.op == "GroupBy"
	s.onDevice = s.feedable
}

// bound makes a limit of n rows over child a property of the order-by
// stage child reads 1:1 — child itself, or a Stream over it whose chain
// only projects; a filter between them cuts the bound. The stage is then
// priced and run for the n rows the limit takes (stageAlloc.bound): SelS
// writes only those, in ⌈n/M⌉ passes. The bound is priced in exact
// buffers, not rounded up to whole ones as t is, so a bound of M records
// prices the one pass the kernel runs; n = 0, for which the kernel runs
// none, is priced as one record. The materialize-everything reference
// sorts its whole input.
func (c *compiler) bound(child Operator, n int) {
	if c.opts.MaterializeEveryStep {
		return
	}
	if st, ok := child.(*Stream); ok && st.preds == nil {
		child = st.child
	}
	if s, ok := child.(*Sort); ok && !s.grouping() {
		s.st.bound, s.st.boundBuf = n, float64(max(n, 1)*s.RecordSize())/float64(c.blockSize)
	}
}

// sourceWidth is the record width a scan of op's result reads where it
// lies: a Stream over a base table is a view that reads the table's
// records whole (fuse.go); anything else is read as op emits it — a
// blocking producer's temp through the chain it absorbed, a pipe, or the
// materialize-everything reference's barrier. A view over a stored sort
// result is priced at the view's width.
func sourceWidth(op Operator) int {
	if s, ok := op.(*Stream); ok {
		if scan, ok := s.child.(*Scan); ok {
			return scan.RecordSize()
		}
	}
	return op.RecordSize()
}

// narrow prices an absorbed chain step where it runs: when chainOf gave
// the Filter or Project p to op, the operator of the stage from — a Join
// or GroupBy applying it as it emits — that stage writes what the chain
// lets through, at the chain's width, so that, not the stage's raw
// result, is its output term.
func (c *compiler) narrow(p *Plan, op Operator, from int) {
	if from >= 0 && c.stages[from].node == op {
		c.stages[from].outBuf = c.buffers(c.estimate(p).rows, op.RecordSize())
	}
}

// --- Cardinality estimates ---

// planEstimate is the planner's view of one intermediate result: a row
// count plus, when statistics reached this node, the column statistics of
// its output schema.
type planEstimate struct {
	rows  int
	tbl   *stats.Table
	order emitOrder
}

// estimate derives the node's output estimate bottom-up, once per node:
// the join-order rewrite sorts a chain's leaves by it, and build prices
// every stage with it.
func (c *compiler) estimate(p *Plan) planEstimate {
	if e, ok := c.est[p]; ok {
		return e
	}
	var out planEstimate
	switch p.kind {
	case planScan:
		out = planEstimate{rows: p.col.Len(), tbl: c.statsFor(p)}
	case planFilter:
		in := c.estimate(p.left)
		out = c.filterEstimate(in, p.pred)
		out.order = in.order
	case planProject:
		in := c.estimate(p.left)
		out = projectEstimate(in, p.attrs)
		out.order = in.order.project(p.attrs)
	case planLimit:
		in := c.estimate(p.left)
		out = limitEstimate(in, p.n)
		out.order = in.order
	case planOrderBy:
		out = c.estimate(p.left)
		if _, ok := c.elides(p, out.order); !ok {
			out.order = sorted
		}
	case planGroupBy:
		_, groups := c.groupEstimate(p, c.estimate(p.left))
		out = planEstimate{rows: groups, order: grouped}
	case planJoin:
		out = c.joinEstimate(c.estimate(p.left), c.estimate(p.right))
		out.order = clustered
	}
	c.est[p] = out
	return out
}

// statsFor consults the context's statistics provider for a base table.
func (c *compiler) statsFor(p *Plan) *stats.Table {
	if c.stats == nil || p.col == nil {
		return nil
	}
	return c.stats.TableStats(p.col)
}

// filterEstimate applies a predicate's selectivity to the input estimate
// and propagates the predicate's value bounds into the surviving
// statistics: a range or equality filter tightens the filtered column's
// histogram and distinct count (stats.Restrict), so a later predicate on
// the same column is estimated against the conditional distribution
// instead of the base table's.
func (c *compiler) filterEstimate(in planEstimate, pred Predicate) planEstimate {
	rows := int(float64(in.rows) * c.selectivity(pred, in.tbl))
	if rows < 1 {
		rows = 1
	}
	lo, hi, bounded := predBounds(pred)
	if !bounded {
		return planEstimate{rows: rows, tbl: in.tbl.WithRows(rows)}
	}
	return planEstimate{rows: rows, tbl: in.tbl.Restrict(pred.Attr, lo, hi, rows)}
}

// predBounds converts a predicate to the half-open value range it
// confines its attribute to. Ne confines nothing; Lt 0 and Gt MaxUint64
// confine everything away (lo > hi, the empty range).
func predBounds(pred Predicate) (lo, hi uint64, ok bool) {
	switch pred.Op {
	case Eq:
		return pred.Value, pred.Value, true
	case Lt:
		if pred.Value == 0 {
			return 1, 0, true // empty
		}
		return 0, pred.Value - 1, true
	case Le:
		return 0, pred.Value, true
	case Gt:
		if pred.Value == math.MaxUint64 {
			return 1, 0, true // empty
		}
		return pred.Value + 1, math.MaxUint64, true
	case Ge:
		return pred.Value, math.MaxUint64, true
	}
	return 0, 0, false
}

// projectEstimate remaps the input estimate to the projected schema.
func projectEstimate(in planEstimate, attrs []int) planEstimate {
	return planEstimate{rows: in.rows, tbl: in.tbl.Project(attrs)}
}

// limitEstimate caps the input estimate at n rows.
func limitEstimate(in planEstimate, n int) planEstimate {
	rows := in.rows
	if n < rows {
		rows = n
	}
	return planEstimate{rows: rows, tbl: in.tbl.WithRows(rows)}
}

// selectivity estimates the surviving fraction of a predicate: from the
// input's column statistics when they reached this node, else the
// textbook defaults.
func (c *compiler) selectivity(pred Predicate, tbl *stats.Table) float64 {
	col := tbl.Col(pred.Attr)
	if col == nil || tbl.Rows == 0 {
		return pred.Selectivity()
	}
	var f float64
	switch pred.Op {
	case Eq:
		f = col.FracEq(pred.Value)
	case Ne:
		f = 1 - col.FracEq(pred.Value)
	case Lt:
		f = col.FracLT(pred.Value)
	case Le:
		f = col.FracLE(pred.Value)
	case Gt:
		f = 1 - col.FracLE(pred.Value)
	case Ge:
		f = 1 - col.FracLT(pred.Value)
	default:
		return pred.Selectivity()
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// groupEstimate returns (est, groups): est is the best available
// distinct-group estimate (the caller's hint first, then the key column's
// distinct count from statistics; 0 when neither exists), and groups is
// the output cardinality — est clamped to the input rows, or the rows
// themselves when no estimate exists (aggregation assumed not to shrink).
func (c *compiler) groupEstimate(p *Plan, in planEstimate) (est, groups int) {
	est = p.left.hint // GroupHint annotates the group-by's input
	if est <= 0 {
		if col := in.tbl.Col(0); col != nil {
			est = col.Distinct
		}
	}
	groups = est
	if groups <= 0 || groups > in.rows {
		groups = in.rows
	}
	return est, groups
}

// joinEstimate prices the equi-join of the two inputs on their key
// attributes: |L|·|R| / max(d_L, d_R) when both key columns carry
// distinct counts, the paper's microbenchmark default of "every probe
// record matches" (|R| rows) otherwise.
func (c *compiler) joinEstimate(l, r planEstimate) planEstimate {
	rows := r.rows
	lc, rc := l.tbl.Col(0), r.tbl.Col(0)
	if lc != nil && rc != nil && lc.Distinct > 0 && rc.Distinct > 0 {
		denom := lc.Distinct
		if rc.Distinct > denom {
			denom = rc.Distinct
		}
		rows = int(float64(l.rows) * float64(r.rows) / float64(denom))
	}
	if rows < 1 {
		rows = 1
	}
	return planEstimate{rows: rows, tbl: stats.Concat(l.tbl, r.tbl, rows)}
}

// parOf maps a context's Parallelism knob to the effective
// intra-operator parallelism for pricing: values below 1 (including the
// "unset" zero) price serially.
func parOf(p int) float64 {
	if p < 1 {
		return 1
	}
	return float64(p)
}
