package exec

import (
	"math"
	"sync"

	"wlpm/internal/aggregate"
	"wlpm/internal/algo"
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
// of its share (stageAlloc.plan) — and a fold fed by nested loops also of
// the join's share, whose block is the fold's cluster of keys (arrivalAt)
// — and a greedy water-filling pass hands quanta of the budget to
// whichever window lowers the whole plan's price most per byte. The even
// split remains a guaranteed-no-worse fallback: the allocator compares
// the two predictions and keeps the even shares whenever the greedy
// result does not beat them.
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

// Allocate splits total bytes across independent stage cost curves. Each
// pricer maps a stage share m (in buffers, ≥ 2) to the predicted price
// of the stage's cheapest implementation. Every share is floored at two
// buffers; when the total cannot cover the floors, or when the greedy
// result does not beat the even split's prediction, the even split is
// returned with Even set.
func Allocate(total int64, blockSize int, pricers []func(m float64) float64) Allocation {
	costs := make([]float64, len(pricers))
	return allocate(total, blockSize, len(pricers), func(ms []float64) []float64 {
		for i, p := range pricers {
			costs[i] = p(ms[i])
		}
		return costs
	})
}

// allocate is Allocate over n shares priced together: price maps every
// share (in buffers, ≥ 2) to the per-stage prices of the whole plan —
// possibly more stages than shares, and a stage's price may depend on
// another's share (a fold fed by nested loops, budgetPlan.price). A probe
// window on one share is scored by what it changes anywhere: the sum of
// the per-stage differences, so an independent curve's rate is exactly
// its own difference. The slice price returns is read before the next
// call only.
func allocate(total int64, blockSize, n int, price func(ms []float64) []float64) Allocation {
	if n == 0 {
		return Allocation{}
	}
	if blockSize < 1 {
		blockSize = 1
	}
	floor := stageFloor(blockSize)
	ms := make([]float64, n)
	priceAt := func(shares []int64) []float64 {
		for i, s := range shares {
			ms[i] = allocBuffers(s, blockSize)
		}
		return price(ms)
	}
	costAt := func(shares []int64) float64 {
		sum := 0.0
		for _, c := range priceAt(shares) {
			sum += c
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
	var base []float64
	for rounds := 0; rest >= quantum && quantum > 0 && rounds < 4*allocQuantaPerStage*n; rounds++ {
		base = append(base[:0], priceAt(shares)...)
		bestI, bestW, bestRate := -1, int64(0), 0.0
		for i := range shares {
			probe := func(w int64) {
				ms[i] = allocBuffers(shares[i]+w, blockSize)
				saved := 0.0
				for j, c := range price(ms) {
					saved += base[j] - c
				}
				if rate := saved / float64(w); rate > bestRate {
					bestI, bestW, bestRate = i, w, rate
				}
			}
			for w := quantum; w < rest; w *= 4 {
				probe(w)
			}
			probe(rest)
			ms[i] = allocBuffers(shares[i], blockSize)
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
	order    emitOrder       // group-by: the order its input's keys arrive in (arrivalAt)
	lrec     int             // join: the left input's record width, which sizes nested loops' blocks
	lsrc     int             // join: the record width a scan of the left input reads where it lies (a view's base)
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
	result   bool // the plan's result streams from this stage: fed, it ends in its reader
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
// share of m buffers, its input arriving as its producer emits it at the
// producer's live share (liveArrival).
func (s *stageAlloc) plan(t, v, m float64) stagePlan {
	return s.planAt(t, v, m, s.liveArrival())
}

// planAt is plan with the input's keys arriving in clusters of cluster
// distinct keys (arrivalAt). A pinned algorithm is priced by its own
// profile (sorts.Profiled, joins.Profiled), or at the cheapest plan when
// the implementation has none; an open choice is the cheapest shipped
// plan.
func (s *stageAlloc) planAt(t, v, m, cluster float64) stagePlan {
	if s.op == "Join" {
		lambda, par := s.bp.lambda, s.bp.par
		em := s.emit()
		if s.lsrc != s.lrec {
			em.Source = t * float64(s.lsrc) / float64(s.lrec)
		}
		if j, ok := s.joinA.(joins.Profiled); ok {
			return stagePlan{cost: j.Profile(em, t, v, m, lambda).PriceP(1, lambda, par)}
		}
		best := cost.BestJoinPlanEmit(t, v, m, lambda, par, em)
		return stagePlan{cost: best.Cost, join: best}
	}
	return s.sortPlan(t, m, cluster)
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
func (s *stageAlloc) sortPlan(t, m, cluster float64) stagePlan {
	lambda, par := s.bp.lambda, s.bp.par
	if a, ok := s.sortA.(sorts.Profiled); ok {
		return stagePlan{cost: a.Profile(s.emit(), t, m, lambda).PriceP(1, lambda, par)}
	}
	if s.opened && s.fed {
		return s.fedPlan(t, m, cluster)
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
	if fed := s.fedPlan(t, m, cluster); fed.cost <= stored.cost {
		return fed
	}
	return stored
}

// fedPlan is the fed home's price: ExMS through its intake — for a
// group-by a folding one, whose runs hold what folded leaves of t as the
// keys arrive — plus, over a stored input, the serial scan that pushes it.
// The plan's result stage ends in its reader (Sort.Open pulls the final
// merge), so its output is the reader's to price: a cursor writes
// nothing, and RunCtx's caller owns the collection it appends to.
func (s *stageAlloc) fedPlan(t, m, cluster float64) stagePlan {
	em := s.emit()
	if s.op == "GroupBy" {
		em.Folded = s.folded(t, m, cluster)
	}
	em.Handed = em.Handed || s.result
	p := em.FedExMS(t, m)
	if s.onDevice {
		p.Reads += t
		p.SerialReads += t
	}
	c := p.PriceP(1, s.bp.lambda, s.bp.par)
	return stagePlan{cost: c, fed: true, sort: cost.SortPlan{Algo: cost.SortExMS, Profile: p, Cost: c}}
}

// carryOverShare sizes a cluster's carry-over: the share of its keys
// that the previous cluster's partials, still resident when it starts,
// cost an extra partial each. An intake evicts the least key of its
// current run (replacement selection), not the least recently folded, so
// while it sweeps those partials out it sweeps out keys of the new
// cluster too, and each that arrives again misses again. The share grows
// with the square of how much of the heap a cluster fills —
// carryOverShare × (min(g, S)/max(g, S))² — times the chance that an
// evicted key has another row to come, 1 − g/rows. Form and coefficient
// are measured (TestFoldedPriceMatchesIntake) on clusters of a tenth of
// the groups and on nested-loops-shaped arrivals with each block's keys
// in random order, and hold for blocks whose keys arrive round-robin — as
// nested loops emits a fact table whose keys cycle — while a block fits
// the heap. A cluster of one key carries nothing over: its rows arrive
// together, and nothing misses to evict it before its last.
const carryOverShare = 0.8

// folded estimates, in buffers, the partials a fed group-by's folding
// intake writes from t buffers of input rows at a share of m buffers:
// one per arrival of a key not resident in its S heap slots. Slots and
// partials are aggregate.PartialSize bytes, the rows record.Size. With G
// estimated groups among N rows, the keys arrive in G/g clusters of
// g = min(cluster, G) distinct keys and N·g/G rows each, the key sets of
// successive clusters interleaving — one cluster of all G when nothing is
// known of their order (cluster 0), G clusters of one when they arrive
// sorted. If all G groups fit the heap (S ≥ G) the intake writes none —
// G is returned, which cost.Emit.FedExMS prices as the output alone.
// Otherwise each cluster is priced as if its keys arrived uniformly: if
// they fit (S ≥ g), g partials; if not, the heap fills with S partials
// over the cluster's first g·ln(g/(g−S)) rows, and from then on S of the
// g keys are resident and each row misses with probability 1 − S/g —
// clamped to [g, rows], since every key leaves the heap at least once and
// no row twice (near rows/g = 1 the fill outlasts the cluster and the
// formula drops below g). Every cluster after the first adds its
// carry-over (carryOverShare). A sorted input thus writes its G groups
// once. Without a group estimate nothing is priced (0: unfolded).
func (s *stageAlloc) folded(t, m, cluster float64) float64 {
	if s.groupEst <= 0 {
		return 0
	}
	rowsPerBuf := float64(s.bp.blockSize) / record.Size       // input rows
	perBuf := float64(s.bp.blockSize) / aggregate.PartialSize // partials: heap slots, run records
	n, slots := t*rowsPerBuf, math.Floor(m*perBuf)
	groups := math.Min(float64(s.groupEst), n)
	if groups <= slots {
		return groups / perBuf
	}
	// One cluster of g keys: its partials, and what it carries over when
	// it follows another (every row of a key, R = N/G, is equally likely
	// to be its last).
	price := func(g float64) (partials, carry float64) {
		rows := n * g / groups
		partials = g
		if slots < g {
			fill := g * math.Log(g/(g-slots))
			partials = math.Min(math.Max(slots+(rows-fill)*(1-slots/g), g), rows)
		}
		if g > 1 {
			filled := math.Min(g, slots) / math.Max(g, slots)
			carry = carryOverShare * filled * filled * (1 - groups/n) * g
		}
		return partials, carry
	}
	if cluster <= 0 || cluster >= groups {
		p, _ := price(groups)
		return p / perBuf
	}
	full := math.Floor(groups / cluster)
	p, carry := price(cluster)
	total := full*p + (full-1)*carry
	if rest := groups - full*cluster; rest > 0 {
		p, carry := price(rest)
		total += p + carry
	}
	return total / perBuf
}

// arrivalAt is how many distinct keys at a time the stage's input keys
// arrive at its fold (folded's cluster), its producer planned as prod at
// a share of mProd buffers: one — sorted — when the input is a sort's or
// a group-by's result, and, over a join that runs nested loops, the left
// records of one block, since each probe pass emits only the keys of its
// block (joins.blockNestedLoops). Otherwise nothing is known (0). Only a
// group-by folds.
func (s *stageAlloc) arrivalAt(prod stagePlan, mProd float64) float64 {
	if s.op != "GroupBy" {
		return 0
	}
	switch s.order {
	case sorted, grouped:
		return 1
	case clustered:
		if j := s.bp.stages[s.tFrom]; j.nestedLoops(prod) {
			return math.Max(1, math.Floor(mProd*float64(s.bp.blockSize)/(algo.HashTableExpansion*float64(j.lrec))))
		}
	}
	return 0
}

// liveArrival is arrivalAt with the producer priced at its live share.
func (s *stageAlloc) liveArrival() float64 {
	if s.op != "GroupBy" || s.order != clustered {
		return s.arrivalAt(stagePlan{}, 0)
	}
	j := s.bp.stages[s.tFrom]
	m := allocBuffers(j.share, s.bp.blockSize)
	return s.arrivalAt(j.plan(j.t, j.v, m), m)
}

// nestedLoops reports whether the join stage runs NLJ under plan pl.
func (s *stageAlloc) nestedLoops(pl stagePlan) bool {
	if s.joinA != nil {
		return s.joinA.Name() == cost.JoinNLJ
	}
	return pl.join.Algo == cost.JoinNLJ
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
		s.fed = s.plan(s.t, 0, allocBuffers(s.share, s.bp.blockSize)).fed
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
	plans     []stagePlan   // price's scratch, one per stage
	costs     []float64     // price's result, one per stage
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

// price prices every stage at its current input-size estimates and a
// share of ms[i] buffers, and returns the stages' prices (scratch, valid
// until the next call). The stages are in build's post-order, so a
// producer is planned before the fold whose arrival its plan and share
// decide (arrivalAt): a window on one share moves every price that depends
// on it, which is what the allocator scores.
func (bp *budgetPlan) price(ms []float64) []float64 {
	if len(bp.costs) != len(bp.stages) {
		bp.plans, bp.costs = make([]stagePlan, len(bp.stages)), make([]float64, len(bp.stages))
	}
	for i, s := range bp.stages {
		var prod stagePlan
		mProd := 0.0
		if s.tFrom >= 0 {
			prod, mProd = bp.plans[s.tFrom], ms[s.tFrom]
		}
		bp.plans[i] = s.planAt(s.t, s.v, ms[i], s.arrivalAt(prod, mProd))
		bp.costs[i] = bp.plans[i].cost
	}
	return bp.costs
}

// allocate splits the whole budget across every stage.
func (bp *budgetPlan) allocate() Allocation {
	return allocate(bp.total, bp.blockSize, len(bp.stages), bp.price)
}

// clusterCap bounds a re-split share of the unopened stage d: a fold
// already frozen over d's nested-loops clusters was priced against its
// heap slots, so d may grow while its blocks still fit them and, where
// they did not fit at d's current share, not at all.
func (bp *budgetPlan) clusterCap(d *stageAlloc) int64 {
	limit := int64(math.MaxInt64)
	for _, f := range bp.stages {
		if !f.opened || f.op != "GroupBy" || f.order != clustered || f.tFrom != d.idx || f.groupEst <= 0 {
			continue
		}
		slots := f.share / aggregate.PartialSize
		fit := int64(math.Ceil(float64(slots+1)*algo.HashTableExpansion*float64(d.lrec))) - 1
		limit = min(limit, max(d.share, fit))
	}
	return limit
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
	// Re-split the unopened stages over what the opened ones left, the
	// whole plan priced: an opened fold's price still moves with an
	// unopened producer's share.
	remaining := bp.total
	var open []*stageAlloc
	ms := make([]float64, len(bp.stages))
	for i, d := range bp.stages {
		ms[i] = allocBuffers(d.share, bp.blockSize)
		if d.opened {
			remaining -= d.share
		} else {
			open = append(open, d)
		}
	}
	if remaining > 0 && len(open) > 0 {
		alloc := allocate(remaining, bp.blockSize, len(open), func(sub []float64) []float64 {
			for i, d := range open {
				ms[d.idx] = sub[i]
			}
			return bp.price(ms)
		})
		for i, d := range open {
			share := min(alloc.Shares[i], bp.clusterCap(d))
			if share != d.share {
				d.choice.Resplit = true
			}
			d.share = share
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
		out.order = in.order
		c.narrow(p, out, from, collect)
		return out, from

	case planProject:
		in, from := c.demandWalk(p.left, collect)
		out := projectEstimate(in, p.attrs)
		out.order = in.order.project(p.attrs)
		c.narrow(p, out, from, collect)
		return out, from

	case planLimit:
		in, from := c.demandWalk(p.left, collect)
		out := limitEstimate(in, p.n)
		out.order = in.order
		return out, from

	case planOrderBy:
		in, from := c.demandWalk(p.left, collect)
		if !collect {
			return in, -1
		}
		if note, ok := c.elides(p, in.order); ok {
			c.elided[p] = true
			c.notes = append(c.notes, note)
			return in, from
		}
		out := in
		out.order = sorted
		return out, add(c.feeding(p, &stageAlloc{
			op: "OrderBy", sortA: p.sortA,
			t: c.buffers(in.rows, planRecordSize(p.left)), inEst: float64(in.rows), tFrom: from, vFrom: -1,
		}))

	case planGroupBy:
		in, from := c.demandWalk(p.left, collect)
		est, groups := c.groupEstimate(p, in)
		out := planEstimate{rows: groups, order: grouped}
		if !collect {
			return out, -1
		}
		return out, add(c.feeding(p, &stageAlloc{
			op: "GroupBy", sortA: p.sortA, groupEst: est, order: in.order, outBuf: c.buffers(groups, record.Size),
			t: c.buffers(in.rows, planRecordSize(p.left)), inEst: float64(in.rows), tFrom: from, vFrom: -1,
		}))

	case planJoin:
		lest, lfrom := c.demandWalk(p.left, collect)
		rest, rfrom := c.demandWalk(p.right, collect)
		out := c.joinEstimate(lest, rest)
		out.order = clustered
		if !collect {
			return out, -1
		}
		lrec, rrec := planRecordSize(p.left), planRecordSize(p.right)
		return out, add(&stageAlloc{
			op: "Join", joinA: p.joinA, lrec: lrec, lsrc: c.sourceWidth(p.left), outBuf: c.buffers(out.rows, lrec+rrec),
			t: c.buffers(lest.rows, lrec), v: c.buffers(rest.rows, rrec),
			inEst: float64(lest.rows), tFrom: lfrom, vFrom: rfrom,
		})
	}
	return planEstimate{}, -1
}

// emitOrder is what the planner knows of the order a result's records
// are emitted in: a property of the compiled plan, derived by demandWalk
// from its shape and read twice — an order-by over a result already in
// its order compiles to no stage (elides), and a fold prices the partials
// it writes by how its input's keys arrive (arrivalAt, folded).
type emitOrder uint8

const (
	// unordered: nothing is known.
	unordered emitOrder = iota
	// clustered: the join stage the result streams from emits its keys
	// in clusters when it runs nested loops — each probe pass only the
	// keys of one left block (joins.blockNestedLoops), so how many depends
	// on the join's share. GJ's and HybJ's partitions are not modelled.
	clustered
	// sorted: the record total order (record.Less) — a sort's result.
	sorted
	// grouped: unique keys, ascending — a group-by's result. It is in the
	// record total order too, and since no two records share a key it
	// stays so through any projection that keeps a0 first.
	grouped
)

// project is the order of a result projected to attrs: a new first
// attribute is a new key, and equal keys of a sorted result are ordered
// by bytes the projection may drop or move.
func (o emitOrder) project(attrs []int) emitOrder {
	if len(attrs) == 0 || attrs[0] != 0 || o == sorted {
		return unordered
	}
	return o
}

// elides decides whether the order-by p, over a result emitted in order
// in, compiles to no stage, and says why: the planner owns its sort and
// the result is in the record total order already. A pinned sort runs
// what it names, and the materialize-everything reference sorts.
func (c *compiler) elides(p *Plan, in emitOrder) (string, bool) {
	if p.sortA != nil || c.opts.MaterializeEveryStep {
		return "", false
	}
	switch in {
	case grouped:
		return "OrderBy: no stage, its input is a group-by's result (unique keys, ascending: the record order already)", true
	case sorted:
		return "OrderBy: no stage, its input is a sort's result (the record order already)", true
	}
	return "", false
}

// chainBase is the node beneath p's Filter/Project chain, looking through
// the order-bys that compile to no stage: the operator the chain is built
// on.
func (c *compiler) chainBase(p *Plan) *Plan {
	for p.kind == planFilter || p.kind == planProject || c.elided[p] {
		p = p.left
	}
	return p
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
	q := c.chainBase(p.left)
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

// sourceWidth is the record width a scan of p's result reads where it
// lies: a chain over a base table is a view that reads the table's
// records whole (fuse.go); anything else is read as p emits it — a
// blocking producer's temp through the chain it absorbed, a pipe, or the
// materialize-everything reference's barrier. A view over a stored sort
// result is priced at the view's width.
func (c *compiler) sourceWidth(p *Plan) int {
	if q := c.chainBase(p); q.kind == planScan && !c.opts.MaterializeEveryStep {
		return planRecordSize(q)
	}
	return planRecordSize(p)
}

// absorbs reports whether a Filter or Project over p compiles into the
// blocking operator at the bottom of p's Filter/Project chain
// (compiler.chainOf decides the same thing on the operator tree).
func (c *compiler) absorbs(p *Plan) bool {
	p = c.chainBase(p)
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
