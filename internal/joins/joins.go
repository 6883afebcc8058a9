// Package joins implements the paper's equi-join algorithms (§2.2) as one
// family built from three mechanisms, the way the paper derives them —
// each baseline runs as the degenerate setting of the write-limited
// algorithm built from it:
//
//   - the block-nested-loops loop (nlj.go): NLJ — minimal writes, maximal
//     reads — and the T(1−x) ⋈ V half of HybJ
//   - the Grace phase (gj.go): partition x of k on both sides, join the
//     pairs. GJ — Grace join — is all k partitions; SegJ — segmented
//     Grace (§2.2.2, Eqs. 9–10) — a fraction of them, GJ at intensity 1;
//     HybJ — hybrid Grace-nested-loops (§2.2.1, Eq. 6) — all k of an
//     (x, y) prefix of its inputs, NLJ at x = 0
//   - the iterative hash loop (laj.go): LaJ — lazy hash join (§2.2.3,
//     Table 1, Eq. 11) — materializes its survivors when Eq. 11 says so;
//     HJ — standard hash join, §2.2.3's baseline — on every iteration
//
// All algorithms join on key equality (attribute 0 of each record) and
// emit left‖right concatenations into the output collection, or hand each
// match to a Pairs output as its two halves. The catalog
// below is each algorithm's single declaration: the planner, the plan DSL
// and the CLIs name, build and price it from there.
package joins

import (
	"fmt"
	"math/bits"

	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Algorithm is a persistent-memory equi-join operator: one of the
// catalog's joins, or a caller's type that embeds one. The family is
// closed — every member prices itself, so every price the system prints
// is a member's Profile.
type Algorithm interface {
	// Name is the experiment identifier ("GJ", "HybJ(0.5,0.5)"…).
	Name() string
	// Join appends every matching left‖right pair to out — to a Pairs
	// out, hands it over as its halves. The output record size must be
	// the sum of the input record sizes.
	Join(env *algo.Env, left, right, out storage.Collection) error
	// Profile is the predicted I/O for t build-side and v probe-side
	// buffers with m of memory at ratio λ, emitting as em describes: what
	// the planner, Explain and Fig. 12 price the algorithm at.
	Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile
}

// catalog declares the shipped joins under cost.BestJoinPlanP's names.
var catalog = algo.Catalog[Algorithm]{Family: "joins", Entries: []algo.Entry[Algorithm]{
	{Name: cost.JoinNLJ, New: func([]float64) Algorithm { return NewNestedLoops() }},
	{Name: cost.JoinHJ, New: func([]float64) Algorithm { return NewHash() }},
	{Name: cost.JoinGJ, New: func([]float64) Algorithm { return NewGrace() }},
	{Name: cost.JoinLaJ, New: func([]float64) Algorithm { return NewLazyHash() }},
	{Name: cost.JoinSegJ, Knobs: 1, New: func(k []float64) Algorithm { return NewSegmentedGrace(k[0]) }},
	{Name: cost.JoinHybJ, Knobs: 2, New: func(k []float64) Algorithm { return NewHybridGraceNL(k[0], k[1]) }},
}}

// New builds the join named name, its knobs (if it has any) taken from
// the front of knobs: x, then y.
func New(name string, knobs ...float64) (Algorithm, error) { return catalog.New(name, knobs...) }

// Parse builds a join from its DSL spelling: "GJ", "HybJ:0.5:0.5".
func Parse(s string) (Algorithm, error) { return catalog.Parse(s) }

// Spellings lists the DSL spellings Parse accepts.
func Spellings() []string { return catalog.Spellings() }

// checkArgs validates the common preconditions of all Join calls. The
// output record size selects the result shape: left+right concatenation,
// or a projection to the probe-side (right) record — the paper's
// evaluation materializes single-record result tuples (its NLJ writes
// exactly |V| buffers).
func checkArgs(env *algo.Env, left, right, out storage.Collection) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if left == nil || right == nil || out == nil {
		return fmt.Errorf("joins: nil collection")
	}
	if out.RecordSize() != left.RecordSize()+right.RecordSize() && out.RecordSize() != right.RecordSize() {
		return fmt.Errorf("joins: output record size %d, want %d+%d (concatenation) or %d (projection)",
			out.RecordSize(), left.RecordSize(), right.RecordSize(), right.RecordSize())
	}
	if out.Len() != 0 {
		return fmt.Errorf("joins: output collection %q not empty", out.Name())
	}
	return nil
}

// hashKey scrambles a join key; partition functions take it modulo the
// partition count. (Fibonacci hashing: adequate dispersion, deterministic
// across scans, cheap.)
func hashKey(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ (k >> 32)
}

// partitionOf maps a record's key to one of k partitions.
func partitionOf(rec []byte, k int) int {
	return int(hashKey(record.Key(rec)) % uint64(k))
}

// hashTable is the in-memory build side: records in a flat vector, their
// keys beside it, indexed by int32 arrays alone — an open-addressed slot
// per distinct key (linear probing over a power-of-two table kept at
// most half full) naming the first and last build record of that key,
// and one link per record to the next record of the same key. A probe
// is a slot search plus a list walk in insertion order, which is what
// fixes the join's per-key match order; nothing is allocated per key,
// and reset keeps every array. It reflects the paper's f = 1.2 space
// expansion — the index adds roughly 20% to the raw partition footprint.
type hashTable struct {
	vec   *record.Vec
	keys  []uint64  // keys[i]: the key of vec record i
	next  []int32   // next[i]: the following record with record i's key, -1 at the end
	slots []keyList // len is a power of two
	shift uint      // 64 − log₂ len(slots): slotOf keeps the hash's high bits
	used  int       // occupied slots: distinct keys
}

// keyList is one slot: the records of one key, as 1-based positions in
// the vector so that the zero value is the empty slot.
type keyList struct{ first, last int32 }

// minTableSlots keeps tiny tables from regrowing on their first inserts.
const minTableSlots = 16

func newHashTable(recSize, capHint int) *hashTable {
	if capHint < 0 {
		capHint = 0
	}
	t := &hashTable{
		vec:  record.NewVec(recSize, capHint),
		keys: make([]uint64, 0, capHint),
		next: make([]int32, 0, capHint),
	}
	width := uint(bits.Len(uint(max(2*capHint, minTableSlots) - 1)))
	t.slots, t.shift = make([]keyList, 1<<width), 64-width
	return t
}

// slotOf is where key's probe sequence starts. Its multiplier is not
// hashKey's: the keys of one Grace partition agree on hashKey modulo the
// partition count, and must still spread over the table.
func (t *hashTable) slotOf(key uint64) int {
	return int((key * 0xD6E8FEB86659FD93) >> t.shift)
}

func (t *hashTable) insert(rec []byte) {
	t.vec.Append(rec)
	t.link(record.Key(rec))
}

// link indexes the vector's next unindexed record, whose key is key:
// records are linked in vector order, so each key's list is in
// insertion order.
func (t *hashTable) link(key uint64) {
	pos := int32(len(t.keys))
	t.keys = append(t.keys, key)
	t.next = append(t.next, -1)
	mask := len(t.slots) - 1
	for s := t.slotOf(key); ; s = (s + 1) & mask {
		l := &t.slots[s]
		if l.first == 0 {
			*l = keyList{first: pos + 1, last: pos + 1}
			if t.used++; 2*t.used > len(t.slots) {
				t.grow()
			}
			return
		}
		if t.keys[l.first-1] == key {
			t.next[l.last-1] = pos
			l.last = pos + 1
			return
		}
	}
}

// grow doubles the slot table. Slots hold distinct keys, so re-placing
// one is a search for an empty slot.
func (t *hashTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]keyList, 2*len(old)), t.shift-1
	mask := len(t.slots) - 1
	for _, l := range old {
		if l.first == 0 {
			continue
		}
		s := t.slotOf(t.keys[l.first-1])
		for t.slots[s].first != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = l
	}
}

func (t *hashTable) reset() {
	t.vec.Reset()
	t.keys, t.next = t.keys[:0], t.next[:0]
	clear(t.slots)
	t.used = 0
}

// probe calls emit for every build record matching key, in insertion
// order.
func (t *hashTable) probe(key uint64, emit func(build []byte) error) error {
	mask := len(t.slots) - 1
	for s := t.slotOf(key); ; s = (s + 1) & mask {
		l := t.slots[s]
		if l.first == 0 {
			return nil
		}
		if t.keys[l.first-1] != key {
			continue
		}
		for i := l.first - 1; i >= 0; i = t.next[i] {
			if err := emit(t.vec.At(int(i))); err != nil {
				return err
			}
		}
		return nil
	}
}

// workingSet is one Join call's DRAM working memory: the paper's one
// in-memory hash table of M/f records that a partitioned join walks its
// partitions through, the parallel build's per-worker vectors, and the
// emitter with its probe staging. A join allocates it once; every build
// (each Grace partition, each SegJ re-scan, each NLJ block) resets and
// refills the same table, so what a join allocates does not grow with
// the number of its builds and probes. A skewed partition may still grow
// the table, which keeps that capacity for the rest of the join.
type workingSet struct {
	table *hashTable
	parts []*record.Vec // the parallel build's per-worker vectors
	em    *emitter
}

// newWorkingSet sizes the table at the budget's M/f records, or at the
// whole left input when that is smaller: no build of the join holds more
// (env.BudgetHashRecords, partitionCount).
func newWorkingSet(env *algo.Env, left, right, out storage.Collection) *workingSet {
	recSize := left.RecordSize()
	return &workingSet{
		table: newHashTable(recSize, min(env.BudgetHashRecords(recSize), left.Len())),
		em:    newEmitter(out, recSize, right.RecordSize()),
	}
}

// buildParts returns w empty per-worker build vectors. The slots are
// added here, before the workers start, never from inside one; each
// vector keeps the capacity its largest build gave it.
func (ws *workingSet) buildParts(w int) []*record.Vec {
	for len(ws.parts) < w {
		ws.parts = append(ws.parts, record.NewVec(ws.table.vec.RecordSize(), 0))
	}
	for _, part := range ws.parts[:w] {
		part.Reset()
	}
	return ws.parts[:w]
}

// Pairs is a join output that takes each match as its two halves: a
// write-only collection of left‖right records whose emitter hands match
// the left and right records themselves, so a consumer that reads a few
// attributes of either half never has a joined row built for it. Its
// Append splits a joined record at the left width and calls match.
// match must not keep either slice past its return: the left one is a
// build-table record, the right one a probe record whose block the
// scan's next read may replace.
type Pairs struct {
	storage.Sink
	match func(left, right []byte) error
}

// NewPairs returns the output of a join of lsize-byte left and
// rsize-byte right records that calls match for every match and flush
// when the join closes its output.
func NewPairs(name string, lsize, rsize int, match func(left, right []byte) error, flush func() error) *Pairs {
	split := func(rec []byte) error { return match(rec[:lsize], rec[lsize:]) }
	return &Pairs{Sink: *storage.NewSink(name, lsize+rsize, split, flush), match: match}
}

// emitter hands every match to the output through one match function,
// resolved when the join starts: a Pairs output's own, or one of two
// defaults chosen by the output's record size (see checkArgs) — append
// the probe-side record, or the left‖right concatenation.
type emitter struct {
	match  func(left, right []byte) error
	lsize  int // where a staged left‖right record splits
	rsize  int
	staged []*record.Vec // one staging vector per probe worker (parallel.go)
}

func newEmitter(out storage.Collection, lsize, rsize int) *emitter {
	e := &emitter{lsize: lsize, rsize: rsize}
	if p, ok := out.(*Pairs); ok {
		e.match = p.match
	} else if out.RecordSize() == rsize {
		e.match = func(_, right []byte) error { return out.Append(right) }
	} else {
		row := make([]byte, lsize+rsize)
		e.match = func(left, right []byte) error {
			copy(row, left)
			copy(row[lsize:], right)
			return out.Append(row)
		}
	}
	return e
}

// partitionCount is k = ⌈f·|T|/M⌉: the fewest partitions whose hash
// tables fit in memory (M/f records each, env.BudgetHashRecords).
func partitionCount(env *algo.Env, leftRecords, recSize int) int {
	cap := env.BudgetHashRecords(recSize)
	k := (leftRecords + cap - 1) / cap
	if k < 1 {
		k = 1
	}
	return k
}
