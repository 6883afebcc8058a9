// Package joins implements the paper's equi-join algorithms (§2.2):
//
//   - NLJ  — block nested loops: minimal writes, maximal reads
//   - HJ   — standard iterative hash join (§2.2.3's baseline)
//   - GJ   — Grace join: partition both inputs, then join partition-wise
//   - HybJ — hybrid Grace-nested-loops join (§2.2.1, Eq. 6)
//   - SegJ — segmented Grace join (§2.2.2, Eqs. 9–10)
//   - LaJ  — lazy hash join (§2.2.3, Table 1, Eq. 11)
//
// All algorithms join on key equality (attribute 0 of each record) and
// emit left‖right concatenations into the output collection.
package joins

import (
	"fmt"

	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Algorithm is a persistent-memory equi-join operator.
type Algorithm interface {
	// Name is the experiment identifier ("GJ", "HybJ(0.5,0.5)"…).
	Name() string
	// Join appends every matching left‖right pair to out. The output
	// record size must be the sum of the input record sizes.
	Join(env *algo.Env, left, right, out storage.Collection) error
}

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

// hashTable is the in-memory build side: records in a flat vector indexed
// by key. It reflects the paper's f = 1.2 space expansion — the index
// adds roughly 20% to the raw partition footprint.
type hashTable struct {
	vec *record.Vec
	idx map[uint64][]int32
}

func newHashTable(recSize, capHint int) *hashTable {
	if capHint < 0 {
		capHint = 0
	}
	return &hashTable{
		vec: record.NewVec(recSize, capHint),
		idx: make(map[uint64][]int32, capHint),
	}
}

func (t *hashTable) insert(rec []byte) {
	t.vec.Append(rec)
	k := record.Key(rec)
	t.idx[k] = append(t.idx[k], int32(t.vec.Len()-1))
}

func (t *hashTable) len() int { return t.vec.Len() }

func (t *hashTable) reset() {
	t.vec.Reset()
	clear(t.idx)
}

// probe calls emit for every build record matching rec's key.
func (t *hashTable) probe(key uint64, emit func(build []byte) error) error {
	for _, i := range t.idx[key] {
		if err := emit(t.vec.At(int(i))); err != nil {
			return err
		}
	}
	return nil
}

// emitter materializes matched pairs into the output collection, either
// as left‖right concatenations or as probe-side projections, depending on
// the output's record size (see checkArgs).
type emitter struct {
	out     storage.Collection
	scratch []byte
	lsize   int
	project bool // emit only the right record
	matches int
}

func newEmitter(out storage.Collection, lsize, rsize int) *emitter {
	return &emitter{
		out:     out,
		scratch: make([]byte, lsize+rsize),
		lsize:   lsize,
		project: out.RecordSize() == rsize,
	}
}

func (e *emitter) emit(left, right []byte) error {
	e.matches++
	if e.project {
		return e.out.Append(right)
	}
	copy(e.scratch, left)
	copy(e.scratch[e.lsize:], right)
	return e.out.Append(e.scratch)
}

// emitRaw appends an already-materialized output record; the ordered
// parallel emitter uses it to flush DRAM-staged matches.
func (e *emitter) emitRaw(rec []byte) error {
	e.matches++
	return e.out.Append(rec)
}

// buildCap is the number of build-side records whose hash table fits the
// budget (the paper's M/f).
func buildCap(env *algo.Env, recSize int) int {
	return env.BudgetHashRecords(recSize)
}

// partitionCount is k = ⌈f·|T|/M⌉: the fewest partitions whose hash
// tables fit in memory.
func partitionCount(env *algo.Env, leftRecords, recSize int) int {
	cap := buildCap(env, recSize)
	k := (leftRecords + cap - 1) / cap
	if k < 1 {
		k = 1
	}
	return k
}
