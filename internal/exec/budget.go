package exec

import (
	"math"
	"sync"

	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/record"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// Budget allocation: memory planning as a first-class layer.
//
// The plan's DRAM budget M used to be split evenly across the blocking
// stages. The allocator here splits it by marginal benefit instead: each
// stage exposes the price of its cheapest implementation as a function
// of its share (stageAlloc.plan), and a greedy water-filling pass hands
// quanta of the budget to whichever stage's cost curve bends most. The
// even split remains a guaranteed-no-worse fallback: the allocator
// compares the two predictions and keeps the even shares whenever the
// greedy result does not beat them.
//
// At run time the shares stay live: when a blocking stage opens and its
// actual input cardinality diverges from the estimate, budgetPlan.commit
// scales the estimates of the stages it feeds and re-splits the
// not-yet-opened stages' shares over the remaining budget — the memory
// twin of the Open-time algorithm re-planning the operators already do.

// allocQuantaPerStage bounds the greedy pass: the remaining budget above
// the floors is handed out in at most ~this many quanta per stage.
const allocQuantaPerStage = 64

// Allocation is the result of one budget split across blocking stages.
type Allocation struct {
	Shares   []int64 // per-stage share in bytes, stage order
	Cost     float64 // predicted plan cost at Shares (buffer-read units)
	EvenCost float64 // predicted plan cost at the even split
	Even     bool    // the even split won — Shares hold it
}

// stageFloor is the smallest useful stage share: two persistence-layer
// buffers, matching algo.Env.BudgetBuffers and the compiler's memBuffers
// floor (one input/fan-in buffer plus one output buffer). Shares are
// never sized below it — the old 1-byte floor admitted budgets no
// algorithm could run at.
func stageFloor(blockSize int) int64 {
	if blockSize < 1 {
		blockSize = 1
	}
	return 2 * int64(blockSize)
}

// allocBuffers converts a share in bytes to the cost model's m, floored
// at 2 buffers like the rest of the engine.
func allocBuffers(share int64, blockSize int) float64 {
	m := float64(share) / float64(blockSize)
	if m < 2 {
		m = 2
	}
	return m
}

// Allocate splits total bytes across the stages' cost curves. Each
// pricer maps a stage share m (in buffers, ≥ 2) to the predicted price
// of the stage's cheapest implementation. Every share is floored at two
// buffers; when the total cannot cover the floors, or when the greedy
// result does not beat the even split's prediction, the even split is
// returned with Even set.
func Allocate(total int64, blockSize int, pricers []func(m float64) float64) Allocation {
	n := len(pricers)
	if n == 0 {
		return Allocation{}
	}
	if blockSize < 1 {
		blockSize = 1
	}
	floor := stageFloor(blockSize)
	costAt := func(shares []int64) float64 {
		sum := 0.0
		for i, p := range pricers {
			sum += p(allocBuffers(shares[i], blockSize))
		}
		return sum
	}
	evenShare := total / int64(n)
	if evenShare < floor {
		evenShare = floor
	}
	even := make([]int64, n)
	for i := range even {
		even[i] = evenShare
	}
	evenCost := costAt(even)
	if total < int64(n)*floor {
		return Allocation{Shares: even, Cost: evenCost, EvenCost: evenCost, Even: true}
	}

	shares := make([]int64, n)
	for i := range shares {
		shares[i] = floor
	}
	rest := total - int64(n)*floor
	quantum := int64(blockSize)
	if q := rest / int64(allocQuantaPerStage*n); q > quantum {
		quantum = (q / int64(blockSize)) * int64(blockSize)
	}
	// Water-filling with step-aware probing: the curves are staircases
	// (pass counts are ceilings), so a fixed small quantum would see a
	// zero gradient inside a flat step and give up too early. Each round
	// probes geometrically growing windows (quantum, 4×, 16×, …, rest)
	// per stage and hands the window with the best cost-saved-per-byte
	// rate to its stage.
	for rounds := 0; rest >= quantum && quantum > 0 && rounds < 4*allocQuantaPerStage*n; rounds++ {
		bestI, bestW, bestRate := -1, int64(0), 0.0
		for i, p := range pricers {
			base := p(allocBuffers(shares[i], blockSize))
			probe := func(w int64) {
				rate := (base - p(allocBuffers(shares[i]+w, blockSize))) / float64(w)
				if rate > bestRate {
					bestI, bestW, bestRate = i, w, rate
				}
			}
			for w := quantum; w < rest; w *= 4 {
				probe(w)
			}
			probe(rest)
		}
		if bestI < 0 {
			break // flat curves: more memory buys nothing anywhere
		}
		shares[bestI] += bestW
		rest -= bestW
	}
	// Whatever the greedy pass left (flat tails, sub-quantum remainder)
	// is spread evenly rather than parked: the model says it buys
	// nothing, and idle budget would just shrink the stages for free.
	if rest > 0 {
		per := rest / int64(n)
		for i := range shares {
			shares[i] += per
		}
		shares[0] += rest - per*int64(n)
	}
	greedyCost := costAt(shares)
	if !(greedyCost <= evenCost+1e-9*(1+math.Abs(evenCost))) {
		return Allocation{Shares: even, Cost: evenCost, EvenCost: evenCost, Even: true}
	}
	return Allocation{Shares: shares, Cost: greedyCost, EvenCost: evenCost}
}

// stageAlloc is one blocking stage of a compiled plan, and the only place
// the stage is priced. The demand walk fills it from the cardinality
// estimates; the allocator water-fills over plan(t, v, ·); the compiler
// instantiates what plan names at the allocated share and shows it in
// the Explain choice; and the stage's operator calls open with its
// actual input sizes, which re-splits the unopened shares and re-plans —
// so the allocator's curves, Explain and the run can never disagree.
type stageAlloc struct {
	op       string          // "OrderBy", "GroupBy" or "Join"
	idx      int             // position in the plan's stage order (build's post-order)
	bp       *budgetPlan     // the plan's pricing inputs and live shares
	sortA    sorts.Algorithm // pinned sort (order-by, group-by); nil = planner's choice
	joinA    joins.Algorithm // pinned join; nil = planner's choice
	groupEst int             // group-by: distinct-group estimate (0 = none)
	outBuf   float64         // join, group-by: estimated result size through any absorbed chain (buffers)
	t, v     float64         // current input-size estimates (buffers)
	inEst    float64         // estimated build/input rows, divergence baseline
	tFrom    int             // stage index feeding the t input (-1: base tables only)
	vFrom    int             // stage index feeding the v input (-1: none/base)
	share    int64           // allocated share in bytes
	opened   bool            // the stage has started; its share is frozen
	choice   *Choice         // Explain entry mirroring share, cost and actuals

	// Process-to-append (§3.1), see feeding: a feedable stage may take
	// its input pushed into a sorts.Intake instead of reading it where it
	// lies, and owns the price of the temp that saves; the handed stage
	// beneath it prices no output (cost.Emit.Handed).
	feedable bool // planner-owned group-by, or order-by over a result nothing else reads
	onDevice bool // feedable group-by whose input is on the device already: no temp to price
	handed   bool // join, group-by: the consumer is feedable
	fed      bool // feedable and opened: the input was pushed, there is no temp
}

// stagePlan is one pricing of a stage: the predicted cost and what would
// run. Plain values — plan sits inside the allocator's probe loop;
// sortFor and joinFor instantiate only the plan that is finally used.
type stagePlan struct {
	cost float64
	fed  bool          // the input is pushed into the sort's intake (sort is ExMS)
	sort cost.SortPlan // the planner's sort (zero when pinned or a join)
	join cost.JoinPlan // the planner's join (zero when pinned or not a join)
}

// plan prices the stage for t (and, for joins, v) input buffers at a
// share of m buffers. A pinned algorithm is priced by its own profile
// (sorts.Profiled, joins.Profiled), or at the cheapest plan when the
// implementation has none; an open choice is the cheapest shipped plan.
func (s *stageAlloc) plan(t, v, m float64) stagePlan {
	if s.op == "Join" {
		lambda, par := s.bp.lambda, s.bp.par
		if j, ok := s.joinA.(joins.Profiled); ok {
			return stagePlan{cost: j.Profile(s.emit(), t, v, m, lambda).PriceP(1, lambda, par)}
		}
		best := cost.BestJoinPlanEmit(t, v, m, lambda, par, s.emit())
		return stagePlan{cost: best.Cost, join: best}
	}
	return s.sortPlan(t, m)
}

// sortPlan prices a sort stage (order-by, group-by). A pinned sort runs
// its algorithm over a stored input. An open choice over a stored input
// is the cheapest shipped sort. A feedable stage is the one priced
// decision between the two homes of its input, taken inside the
// allocator's curve: fed — the input is appended to ExMS's intake, so it
// is never written as a temp nor read back, run formation is serial and
// every extra merge pass costs (1+λ)·t, a group-by's only what its fold
// leaves of t (none when that fits the share) — or stored — the t
// buffers of temp the producer no longer prices (cost.Emit.Handed;
// written by one ordered stream, so serial too; none over an input on
// the device), then the cheapest sort over them, which at shares too
// small for one merge pass is SelS, LaS or a low-intensity SegS. A tie
// goes to fed: equal I/O, and no temp to create and destroy. Once the
// stage has opened the input has its home and only that side is
// re-priced.
func (s *stageAlloc) sortPlan(t, m float64) stagePlan {
	lambda, par := s.bp.lambda, s.bp.par
	if a, ok := s.sortA.(sorts.Profiled); ok {
		return stagePlan{cost: a.Profile(s.emit(), t, m, lambda).PriceP(1, lambda, par)}
	}
	if s.opened && s.fed {
		return s.fedPlan(t, m)
	}
	best := cost.BestSortPlanEmit(t, m, lambda, par, s.emit())
	stored := stagePlan{cost: best.Cost, sort: best}
	if !s.feedable {
		return stored
	}
	if !s.onDevice {
		stored.cost += lambda * t
	}
	if s.opened {
		return stored
	}
	if fed := s.fedPlan(t, m); fed.cost <= stored.cost {
		return fed
	}
	return stored
}

// fedPlan is the fed home's price: ExMS through its intake — for a
// group-by a folding one, whose runs hold what folded leaves of t — plus,
// over a stored input, the serial scan that pushes it.
func (s *stageAlloc) fedPlan(t, m float64) stagePlan {
	em := s.emit()
	if s.op == "GroupBy" {
		em.Folded = s.folded(t, m)
	}
	p := em.FedExMS(t, m)
	if s.onDevice {
		p.Reads += t
		p.SerialReads += t
	}
	c := p.PriceP(1, s.bp.lambda, s.bp.par)
	return stagePlan{cost: c, fed: true, sort: cost.SortPlan{Algo: cost.SortExMS, Profile: p, Cost: c}}
}

// folded estimates, in buffers, the partials a fed group-by's folding
// intake writes from t buffers of input rows at a share of m buffers:
// one per arrival of a key not resident in its S heap slots. With G
// estimated groups among N rows: if all groups fit (S ≥ G), G partials.
// Otherwise, with keys arriving uniformly, the heap fills with S partials
// over the first G·ln(G/(G−S)) rows; from then on S of the G groups are
// resident, and each row misses with probability 1 − S/G — clamped to
// [G, N], since every group leaves the heap at least once and no row
// twice (near N/G = 1 the fill outlasts the input and the formula drops
// below G). A producer that emits its keys clustered folds better than
// this. Without a group estimate nothing is priced (0: unfolded).
func (s *stageAlloc) folded(t, m float64) float64 {
	if s.groupEst <= 0 {
		return 0
	}
	perBuf := float64(s.bp.blockSize) / record.Size // rows per buffer
	n, slots := t*perBuf, math.Floor(m*perBuf)
	g := math.Min(float64(s.groupEst), n)
	partials := g
	if slots < g {
		fill := g * math.Log(g/(g-slots))
		partials = math.Min(math.Max(slots+(n-fill)*(1-slots/g), g), n)
	}
	return partials / perBuf
}

// emit is what the stage really does with its output term; every
// candidate is profiled with it (cost.Emit), so the term is re-sized
// inside the profile, before PriceP scales it, never as a correction to
// a price. A join's profile charges the paper's microbenchmark output
// (|V| single-record results); the engine writes left‖right
// concatenations of the estimated output cardinality, through any
// absorbed chain — at P = 1 a constant shift across the algorithm
// candidates, yet it matters when comparing join orders, where v flips
// sides while the real output stays put. A group-by emits only its
// groups — its sort combines equal keys, stored or fed (fedPlan adds
// what the fold leaves of the runs): the output term shrinks from the t
// sorted buffers to the groups that survive the absorbed chain, and the
// pass that emits them is serial at any P (one ordered stream, never
// range appends). A stored sort's own passes are still priced over the
// t input buffers, not over the partials it folds them to. An
// order-by materializes what its profile says. A handed
// stage's output is its feedable consumer's to price, wherever the
// consumer has it put.
func (s *stageAlloc) emit() cost.Emit {
	switch s.op {
	case "Join":
		return cost.Emit{Out: s.outBuf, Handed: s.handed}
	case "GroupBy":
		return cost.Emit{Out: s.outBuf, Serial: true, Handed: s.handed}
	}
	return cost.Emit{}
}

// sortFor returns the sort pl runs: the pinned algorithm, else the
// planner's pick built from the sorts catalog with its knob placed. The
// catalogs are keyed by the planner's own identifiers (TestCatalog walks
// them), so a miss is a programming error, not an input error.
func (s *stageAlloc) sortFor(pl stagePlan) sorts.Algorithm {
	if s.sortA != nil {
		return s.sortA
	}
	a, err := sorts.New(pl.sort.Algo, pl.sort.Intensity)
	if err != nil {
		panic(err)
	}
	return a
}

// joinFor is sortFor's join twin.
func (s *stageAlloc) joinFor(pl stagePlan) joins.Algorithm {
	if s.joinA != nil {
		return s.joinA
	}
	a, err := joins.New(pl.join.Algo, pl.join.X, pl.join.Y)
	if err != nil {
		panic(err)
	}
	return a
}

// open is called by the stage's operator once its inputs are
// materialized: it records the actual rows on the Explain choice,
// re-splits the unopened stages' shares from the actual sizes (commit)
// and re-plans the stage at the share that left it — the misestimate
// repair the fixed selectivities and hints cannot make at compile time.
// Pinned choices are re-priced too, so cost and algorithm always
// describe each other.
func (s *stageAlloc) open(rows int, t, v float64) stagePlan {
	s.choice.ActualRows = rows
	pl := s.plan(t, v, s.bp.commit(s.idx, t, v, rows))
	s.choice.Share, s.choice.Cost = s.share, pl.cost
	return pl
}

// openSort opens a sort stage (order-by, sort-based group-by) on its
// materialized input and returns the algorithm to run: cur, unless the
// planner owns the choice and the actuals changed it.
func (s *stageAlloc) openSort(in storage.Collection, cur sorts.Algorithm) sorts.Algorithm {
	t := buffers(in.Len(), in.RecordSize(), s.bp.blockSize)
	return replanned(s, cur, s.sortFor(s.open(in.Len(), t, 0)))
}

// openJoin is openSort's join twin (the actual rows are the build
// side's); the re-priced cost keeps the compile-time output estimate —
// the output hasn't been produced yet.
func (s *stageAlloc) openJoin(left, right storage.Collection, cur joins.Algorithm) joins.Algorithm {
	t := buffers(left.Len(), left.RecordSize(), s.bp.blockSize)
	v := buffers(right.Len(), right.RecordSize(), s.bp.blockSize)
	return replanned(s, cur, s.joinFor(s.open(left.Len(), t, v)))
}

// replanned keeps cur when the re-plan names the same algorithm (always,
// for a pinned one) and otherwise records the change on the choice.
func replanned[A interface{ Name() string }](s *stageAlloc, cur, a A) A {
	if a.Name() == cur.Name() {
		return cur
	}
	s.choice.Replanned, s.choice.Algorithm = true, a.Name()
	return a
}

// feed is called by a sort stage's operator, running cur, before its
// producer opens. It reports whether the input is to be pushed into the
// stage's intake — the stage is feedable and, at its current estimate
// and share, fed prices no higher than stored (sortPlan) — and if so
// returns ExMS, which is what an intake runs, and freezes the share: the
// intake is live while the producer runs, so a later re-split must not
// move its memory. The operator reports the actuals through fedRows when
// the intake ends.
func (s *stageAlloc) feed(cur sorts.Algorithm) (sorts.Algorithm, bool) {
	if !s.feedable {
		return cur, false
	}
	s.bp.mu.Lock()
	defer s.bp.mu.Unlock()
	if !s.opened {
		s.fed = s.sortPlan(s.t, allocBuffers(s.share, s.bp.blockSize)).fed
		s.opened = s.fed
	}
	s.choice.Fed = s.fed
	if !s.fed {
		return cur, false
	}
	return replanned(s, cur, sorts.Algorithm(sorts.NewExternalMergeSort())), true
}

// fedMark is the plan line's note on a stage whose input was pushed.
func (s *stageAlloc) fedMark() string {
	if s.choice.Fed {
		return " ⇐ feed"
	}
	return ""
}

// fedRows is open for a fed stage, called when its intake ends with the
// rows it took: the actuals reach the Explain choice and the unopened
// stages above re-split from them; the stage's own share stays frozen
// and its cost is re-priced at what was pushed.
func (s *stageAlloc) fedRows(rows, recSize int) {
	s.open(rows, buffers(rows, recSize, s.bp.blockSize), 0)
}

// budgetPlan carries one compiled plan's pricing inputs and allocation
// through its run.
type budgetPlan struct {
	mu        sync.Mutex
	lambda    float64 // device write/read ratio
	par       float64 // effective intra-operator parallelism (≥ 1) for P-aware pricing
	blockSize int
	total     int64
	stages    []*stageAlloc // the compiler's stage list
}

// buffers converts a (rows, recordSize) pair to buffer units (t or v of
// the cost model), floored at 1.
func buffers(rows, recSize, blockSize int) float64 {
	b := math.Ceil(float64(rows) * float64(recSize) / float64(blockSize))
	if b < 1 {
		b = 1
	}
	return b
}

// buffers is buffers at the plan's block size.
func (c *compiler) buffers(rows, recSize int) float64 {
	return buffers(rows, recSize, c.blockSize)
}

// pricersOf builds the allocator inputs for a subset of stages at their
// current input-size estimates.
func pricersOf(stages []*stageAlloc) []func(m float64) float64 {
	ps := make([]func(m float64) float64, len(stages))
	for i, s := range stages {
		ps[i] = func(m float64) float64 { return s.plan(s.t, s.v, m).cost }
	}
	return ps
}

// commit is called when stage idx opens with its actual input sizes
// (buffers) and build-side rows. It scales the estimates of the unopened
// stages this one feeds by the observed divergence, re-splits the
// remaining budget — total minus the frozen shares of already-opened
// stages — across the unopened stages (idx included, unless it froze
// before its producer ran: a fed stage has built its environment
// already), freezes idx, and returns its share's m in buffers. actRows 0
// freezes without re-splitting (no new information).
func (bp *budgetPlan) commit(idx int, actT, actV float64, actRows int) float64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s := bp.stages[idx]
	if actRows <= 0 {
		s.opened = true
		return allocBuffers(s.share, bp.blockSize)
	}
	ratio := 1.0
	if s.inEst > 0 {
		ratio = float64(actRows) / s.inEst
	}
	if actT > 0 {
		s.t = actT
	}
	if actV > 0 {
		s.v = actV
	}
	s.inEst = float64(actRows)
	// Misestimates propagate multiplicatively through the streaming
	// operators between stages, so the observed input divergence scales
	// every unopened stage downstream of this one (transitively).
	scaled := map[int]bool{idx: true}
	for changed := true; changed; {
		changed = false
		for j, d := range bp.stages {
			if d.opened || scaled[j] {
				continue
			}
			if scaled[d.tFrom] {
				d.t = math.Max(1, d.t*ratio)
				d.inEst *= ratio
				scaled[j] = true
				changed = true
				continue
			}
			if scaled[d.vFrom] {
				d.v = math.Max(1, d.v*ratio)
				scaled[j] = true
				changed = true
			}
		}
	}
	// Re-split the unopened stages over what the opened ones left.
	remaining := bp.total
	var open []*stageAlloc
	for _, d := range bp.stages {
		if d.opened {
			remaining -= d.share
		} else {
			open = append(open, d)
		}
	}
	if remaining > 0 && len(open) > 0 {
		alloc := Allocate(remaining, bp.blockSize, pricersOf(open))
		for i, d := range open {
			if alloc.Shares[i] != d.share {
				d.choice.Resplit = true
			}
			d.share = alloc.Shares[i]
			d.choice.Share = d.share
		}
	}
	s.opened = true
	return allocBuffers(s.share, bp.blockSize)
}

// --- Compile-time demand collection ---

// estimateNode derives the node's output estimate bottom-up without
// collecting stages — what the join-order rewrite sorts the leaves by.
func (c *compiler) estimateNode(p *Plan) planEstimate {
	est, _ := c.demandWalk(p, false)
	return est
}

// demandWalk walks the (already join-reordered) plan in build's
// post-order and returns the node's output estimate and the index of the
// blocking stage its output streams from (-1 when it derives from base
// tables only). With collect set it appends one stageAlloc per blocking
// stage to the compiler's list: the stage's pricing inputs at the
// compile-time cardinality estimates, plus the dataflow links divergence
// propagation follows.
func (c *compiler) demandWalk(p *Plan, collect bool) (planEstimate, int) {
	add := func(s *stageAlloc) int {
		s.idx = len(c.stages)
		c.stages = append(c.stages, s)
		return s.idx
	}
	switch p.kind {
	case planScan:
		return planEstimate{rows: p.col.Len(), tbl: c.statsFor(p)}, -1

	case planFilter:
		in, from := c.demandWalk(p.left, collect)
		out := c.filterEstimate(in, p.pred)
		c.narrow(p, out, from, collect)
		return out, from

	case planProject:
		in, from := c.demandWalk(p.left, collect)
		out := projectEstimate(in, p.attrs)
		c.narrow(p, out, from, collect)
		return out, from

	case planLimit:
		in, from := c.demandWalk(p.left, collect)
		return limitEstimate(in, p.n), from

	case planOrderBy:
		in, from := c.demandWalk(p.left, collect)
		if !collect {
			return in, -1
		}
		return in, add(c.feeding(p, &stageAlloc{
			op: "OrderBy", sortA: p.sortA,
			t: c.buffers(in.rows, planRecordSize(p.left)), inEst: float64(in.rows), tFrom: from, vFrom: -1,
		}))

	case planGroupBy:
		in, from := c.demandWalk(p.left, collect)
		est, groups := c.groupEstimate(p, in)
		out := planEstimate{rows: groups}
		if !collect {
			return out, -1
		}
		return out, add(c.feeding(p, &stageAlloc{
			op: "GroupBy", sortA: p.sortA, groupEst: est, outBuf: c.buffers(groups, record.Size),
			t: c.buffers(in.rows, planRecordSize(p.left)), inEst: float64(in.rows), tFrom: from, vFrom: -1,
		}))

	case planJoin:
		lest, lfrom := c.demandWalk(p.left, collect)
		rest, rfrom := c.demandWalk(p.right, collect)
		out := c.joinEstimate(lest, rest)
		if !collect {
			return out, -1
		}
		lrec, rrec := planRecordSize(p.left), planRecordSize(p.right)
		return out, add(&stageAlloc{
			op: "Join", joinA: p.joinA, outBuf: c.buffers(out.rows, lrec+rrec),
			t: c.buffers(lest.rows, lrec), v: c.buffers(rest.rows, rrec),
			inEst: float64(lest.rows), tFrom: lfrom, vFrom: rfrom,
		})
	}
	return planEstimate{}, -1
}

// feeding decides, from the plan's shape alone, whether the order-by or
// group-by p — whose stage s is about to join the list — may have its
// input pushed instead of stored (the fed home of a result, chain.go):
// the planner owns its sort, and either p is a group-by, whose folding
// intake is its in-memory aggregation, or what it reads exists only for
// it to read — a join's or group-by's result through whatever chain that
// absorbed, or a stream that would be drained into a pipe. Base tables,
// a sorted result and the views over either are on the device whatever p
// does (onDevice). A pinned sort asks for its algorithm's I/O over a
// stored input; the materialize-everything reference stores every step.
// The blocking producer, when there is one, is marked handed: from here
// on the consumer prices the result's home.
func (c *compiler) feeding(p *Plan, s *stageAlloc) *stageAlloc {
	if p.sortA != nil || c.opts.MaterializeEveryStep {
		return s
	}
	q := p.left
	for q.kind == planFilter || q.kind == planProject {
		q = q.left
	}
	switch q.kind {
	case planJoin, planGroupBy:
		c.stages[s.tFrom].handed = true
		s.feedable = true
	case planLimit:
		s.feedable = true
	default:
		s.feedable = p.kind == planGroupBy
		s.onDevice = s.feedable
	}
	return s
}

// absorbs reports whether a Filter or Project over p compiles into the
// blocking operator at the bottom of p's Filter/Project chain
// (compiler.chainOf decides the same thing on the operator tree).
func (c *compiler) absorbs(p *Plan) bool {
	for p.kind == planFilter || p.kind == planProject {
		p = p.left
	}
	return !c.opts.MaterializeEveryStep && (p.kind == planJoin || p.kind == planGroupBy)
}

// narrow prices an absorbed chain step where it runs: the stage beneath
// p (a Filter or Project, estimated at out) writes what the chain lets
// through, at the chain's width, so that — not the stage's raw result —
// is its output term.
func (c *compiler) narrow(p *Plan, out planEstimate, from int, collect bool) {
	if collect && c.absorbs(p.left) {
		c.stages[from].outBuf = c.buffers(out.rows, planRecordSize(p))
	}
}
