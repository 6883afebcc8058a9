package exec

import (
	"math"
	"slices"

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
// Compile builds the operator tree in one walk (compiler.build), and each
// Sort and Join it makes adds a stage priced from the cardinality
// estimates (compiler.estimate) and the shape of the tree beneath it. The
// plan's DRAM budget M is then split across the blocking stages by the
// stages' prices (stageAlloc.plan), which the cost model builds from
// ceilings — pass counts, nested loops' blocks, a fold whose groups fit —
// so each stage's price is a staircase in its share, and a share inside a
// step buys nothing over the step's left edge. The allocator finds each
// stage's edges and scores combinations of them by the whole plan's price
// (budgetPlan.price), in which a fold fed by nested loops also reads the
// join's share, whose block is the fold's cluster of keys (arrivalAt). The
// even split is the first candidate and wins ties.
//
// The split is made once, at compile: a stage runs at the share Compile
// allocated it for the whole run. What a stage observes when it opens —
// its own actual input size — re-prices it at that share, and re-picks
// its algorithm when the planner owns it (stageAlloc.open). Between the
// two, bind prices each stage at its share, which decides a feedable
// stage's input home, and puts the algorithm into its operator.

// Allocation is the result of one budget split across blocking stages.
type Allocation struct {
	Shares   []int64 // per-stage share in bytes, stage order
	Cost     float64 // predicted plan cost at Shares (buffer-read units)
	EvenCost float64 // predicted plan cost at the even split
	Even     bool    // the even split won — Shares hold it

	combos int // splits scored beside the even one (the planner tests log it)
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
// buffers; when the total cannot cover the floors, or when no other
// split is priced below the even one, the even split is returned with
// Even set.
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
// another's share (a fold fed by nested loops, budgetPlan.price). The
// slice price returns is read before the next call only.
//
// Each stage's candidates are the left edges of the steps of its own
// price, the others held at the even split (stepEdges), and the floor.
// Every stage in turn takes what every combination of the others'
// candidates leaves it — the leftover of a combination goes to whichever
// stage it helps most — and each such split is scored by the plan's
// price. The even split is scored first, and a split replaces the best so
// far only when it is priced below it.
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
	even := make([]int64, n)
	for i := range even {
		even[i] = max(total/int64(n), floor)
	}
	evenCost := costAt(even)
	best := Allocation{Shares: even, Cost: evenCost, EvenCost: evenCost, Even: true}
	if n == 1 || total < int64(n)*floor {
		return best // nothing to split, or nothing beyond the floors
	}

	edges := make([][]int64, n)
	for i := range edges {
		split := slices.Clone(even)
		edges[i] = stepEdges(total-int64(n-1)*floor, floor, int64(blockSize), func(s int64) float64 {
			split[i] = s
			return priceAt(split)[i]
		})
	}
	// walk places stages i… but last at each of their candidates that
	// leaves last its floor, and last on whatever they leave.
	split := make([]int64, n)
	var walk func(last, i int, left int64)
	walk = func(last, i int, left int64) {
		if i == last {
			i++
		}
		if i == n {
			split[last] = left
			best.combos++
			if c := costAt(split); c < best.Cost-1e-9*math.Abs(best.Cost) {
				best = Allocation{Shares: slices.Clone(split), Cost: c, EvenCost: evenCost, combos: best.combos}
			}
			return
		}
		for _, e := range edges[i] {
			if left-e >= floor {
				split[i] = e
				walk(last, i+1, left-e)
			}
		}
	}
	for last := range n {
		walk(last, 0, total)
	}
	return best
}

// stepEdges lists the candidate shares, in bytes, of a stage whose own
// price at a share of s bytes is own(s), non-increasing in s: the left
// edge of each step of the staircase, bisected from the largest share top
// down, and the floor. The search stops where the price is flat down to
// the floor, or at a step narrower than one block: from there down the
// price is a curve, not a staircase (a fold's slots are 40 bytes), and
// the stage takes what the other stages' edges leave over.
func stepEdges(top, floor, block int64, own func(s int64) float64) []int64 {
	var edges []int64
	atFloor := own(floor)
	for prev, p := top+1, own(top); p != atFloor; {
		hi := prev - block
		if hi <= floor || own(hi) != p {
			break // a step narrower than one block
		}
		lo, pLo := floor, atFloor // own(lo) != p == own(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if c := own(mid); c == p {
				hi = mid
			} else {
				lo, pLo = mid, c
			}
		}
		edges = append(edges, hi)
		prev, p = hi, pLo
	}
	return append(edges, floor)
}

// stageAlloc is one blocking stage of a compiled plan, and the only place
// the stage is priced. build fills it from the cardinality estimates as
// it makes the stage's operator; the allocator searches the step edges of
// plan(t, v, ·); bind puts what plan names at the allocated share into the
// operator and shows it in the Explain choice; and the operator calls open
// with its actual input sizes, which re-plans at the allocated share — so
// the allocator's curves, Explain and the run can never disagree. Nothing
// here is written after Compile but the stage's Explain choice.
type stageAlloc struct {
	op       string          // "OrderBy", "GroupBy" or "Join"
	node     Operator        // the Sort or Join that runs the stage
	bp       *budgetPlan     // the plan's pricing inputs
	sortA    sorts.Algorithm // pinned sort (order-by, group-by); nil = planner's choice
	joinA    joins.Algorithm // pinned join; nil = planner's choice
	groupEst int             // group-by: distinct-group estimate (0 = none)
	order    emitOrder       // group-by: the order its input's keys arrive in (arrivalAt)
	lrec     int             // join: the left input's record width, which sizes nested loops' blocks
	lsrc     int             // join: the record width a scan of the left input reads where it lies (a view's base)
	outBuf   float64         // join, group-by: estimated result size through any absorbed chain (buffers)
	t, v     float64         // compile-time input-size estimates (buffers)
	inRows   int             // estimated build/input rows
	tFrom    int             // stage index feeding the t input (-1: base tables only)
	share    int64           // allocated share in bytes, fixed for the run
	choice   *Choice         // Explain entry mirroring share, cost and actuals

	// Process-to-append (§3.1), see feeding: a feedable stage may take
	// its input pushed into a sorts.Intake instead of reading it where it
	// lies, and owns the price of the temp that saves; the handed stage
	// beneath it prices no output (cost.Emit.Handed).
	feedable bool // planner-owned group-by, or order-by over a result nothing else reads
	onDevice bool // feedable group-by whose input is on the device already: no temp to price
	handed   bool // join, group-by: the consumer is feedable
	opened   bool // feedable and bound: the input's home is decided (bind), fed or stored
	fed      bool // feedable and opened: the input was pushed, there is no temp
	result   bool // the plan's result streams from this stage: fed, it ends in its reader
}

// stagePlan is one pricing of a stage: the predicted cost and what would
// run. Plain values — plan sits inside the allocator's edge search;
// sortFor and joinFor instantiate only the plan that is finally used.
type stagePlan struct {
	cost float64
	fed  bool          // the input is pushed into the sort's intake (sort is ExMS)
	sort cost.SortPlan // the planner's sort (zero when pinned or a join)
	join cost.JoinPlan // the planner's join (zero when pinned or not a join)
}

// plan prices the stage for t (and, for joins, v) input buffers at a
// share of m buffers, its input arriving as its producer emits it at the
// producer's allocated share (arrival).
func (s *stageAlloc) plan(t, v, m float64) stagePlan {
	return s.planAt(t, v, m, s.arrival())
}

// planAt is plan with the input's keys arriving in clusters of cluster
// distinct keys (arrivalAt). A pinned algorithm is priced by its own
// profile; an open choice is the cheapest shipped plan.
func (s *stageAlloc) planAt(t, v, m, cluster float64) stagePlan {
	if s.op == "Join" {
		lambda, par := s.bp.lambda, s.bp.par
		em := s.emit()
		if s.lsrc != s.lrec {
			em.Source = t * float64(s.lsrc) / float64(s.lrec)
		}
		if s.joinA != nil {
			return stagePlan{cost: s.joinA.Profile(em, t, v, m, lambda).PriceP(1, lambda, par)}
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
// goes to fed: equal I/O, and no temp to create and destroy. Once
// Compile has given the input its home, only that side is re-priced.
func (s *stageAlloc) sortPlan(t, m, cluster float64) stagePlan {
	lambda, par := s.bp.lambda, s.bp.par
	if s.sortA != nil {
		return stagePlan{cost: s.sortA.Profile(s.emit(), t, m, lambda).PriceP(1, lambda, par)}
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

// arrival is arrivalAt with the producer planned at its allocated share.
func (s *stageAlloc) arrival() float64 {
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
// consumer has it put. An order-by's final merge range-appends only on a
// backend that reserves blocks; elsewhere it is one ordered stream.
func (s *stageAlloc) emit() cost.Emit {
	switch s.op {
	case "Join":
		return cost.Emit{Out: s.outBuf, Handed: s.handed}
	case "GroupBy":
		return cost.Emit{Out: s.outBuf, Serial: true, Handed: s.handed}
	}
	return cost.Emit{Serial: !s.bp.reserves}
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

// joinFor is sortFor's join twin. The planner's joins are knobless: HybJ
// and SegJ are linear in their knobs between prices no lower than NLJ's
// or GJ's (cost.BestJoinPlanEmit), so they run only pinned.
func (s *stageAlloc) joinFor(pl stagePlan) joins.Algorithm {
	if s.joinA != nil {
		return s.joinA
	}
	a, err := joins.New(pl.join.Algo)
	if err != nil {
		panic(err)
	}
	return a
}

// bind gives the stage its share once the allocator has split the
// budget: it prices the stage there, which decides a feedable stage's
// input home, fed or stored, puts the algorithm that plan names into the
// stage's operator and returns the stage's Explain choice.
func (s *stageAlloc) bind(share int64) *Choice {
	s.share = share
	pl := s.plan(s.t, s.v, allocBuffers(share, s.bp.blockSize))
	s.fed, s.opened = pl.fed, s.feedable
	s.choice = &Choice{
		Operator: s.op, Pinned: s.sortA != nil || s.joinA != nil,
		InputRows: s.inRows, ActualRows: -1, Buffers: s.t, RightBuf: s.v,
		Cost: pl.cost, Share: share, Fed: pl.fed,
	}
	switch op := s.node.(type) {
	case *Sort:
		op.algo = s.sortFor(pl)
		s.choice.Algorithm = op.algo.Name()
	case *Join:
		op.algo = s.joinFor(pl)
		s.choice.Algorithm = op.algo.Name()
	}
	return s.choice
}

// open is called by the stage's operator once its inputs are
// materialized: it records the actual rows on the Explain choice and
// re-plans the stage at its actual sizes and allocated share — the
// misestimate repair the fixed selectivities and hints cannot make at
// compile time. Pinned choices are re-priced too, so cost and algorithm
// always describe each other.
func (s *stageAlloc) open(rows int, t, v float64) stagePlan {
	pl := s.plan(t, v, allocBuffers(s.share, s.bp.blockSize))
	s.choice.ActualRows, s.choice.Cost = rows, pl.cost
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
// stage's intake — the home Compile gave it: the stage is feedable and,
// at its estimate and share, fed prices no higher than stored (sortPlan)
// — and if so returns ExMS, which is what an intake runs. The operator
// reports the actuals through fedRows when the intake ends.
func (s *stageAlloc) feed(cur sorts.Algorithm) (sorts.Algorithm, bool) {
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
// rows it took: the actuals reach the Explain choice and the cost is
// re-priced at what was pushed.
func (s *stageAlloc) fedRows(rows, recSize int) {
	s.open(rows, buffers(rows, recSize, s.bp.blockSize), 0)
}

// budgetPlan carries one compiled plan's pricing inputs and allocation
// through its run.
type budgetPlan struct {
	lambda    float64 // device write/read ratio
	par       float64 // effective intra-operator parallelism (≥ 1) for P-aware pricing
	reserves  bool    // the backend takes range appends (storage.Factory.ReservesBlocks)
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
// decide (arrivalAt): a change to one share moves every price that depends
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

// --- Emit order ---

// emitOrder is what the planner knows of the order a result's records
// are emitted in: a property of the compiled plan, derived by estimate
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
