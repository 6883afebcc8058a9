package joins

import (
	"wlpm/internal/algo"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// Hash is HJ: the standard iterative hash join of §2.2.3 (Table 1's left
// half). Iteration i builds an in-memory table from the current left
// input's partition-i records and offloads every other record back to
// persistent memory; the right input is processed symmetrically. Each
// iteration therefore shrinks both inputs by one partition — at the price
// of rewriting the survivors every time, the write pathology lazy hash
// join removes.
//
// HJ's build is fused with the offload scan (each scanned record either
// enters the table or is appended to the survivor collection, in scan
// order), so the build cannot be lifted to workers without reordering the
// survivor stream; HJ stays serial at every parallelism level.
type Hash struct{}

// NewHash returns the HJ operator.
func NewHash() *Hash { return &Hash{} }

// Name implements Algorithm.
func (j *Hash) Name() string { return "HJ" }

// Join implements Algorithm.
func (j *Hash) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	k := partitionCount(env, left.Len(), left.RecordSize())
	em := newEmitter(out, left.RecordSize(), right.RecordSize())

	curT, curV := left, right
	var tmpT, tmpV storage.Collection   // owned temps backing curT/curV
	var nextT, nextV storage.Collection // next iteration's intermediate inputs
	joined := false
	defer func() {
		if joined {
			return
		}
		// Error exit: sweep every live intermediate. Destroy is
		// idempotent, so the aliases (tmpT==nextT after rotation) are
		// safe to sweep twice.
		for _, c := range []storage.Collection{tmpT, tmpV, nextT, nextV} {
			if c != nil {
				_ = c.Destroy()
			}
		}
	}()
	table := newHashTable(left.RecordSize(), buildCap(env, left.RecordSize()))

	for p := 0; p < k; p++ {
		last := p == k-1
		table.reset()

		nextT, nextV = nil, nil
		if !last {
			var err error
			if nextT, err = env.CreateTemp("hjt", left.RecordSize()); err != nil {
				return err
			}
			if nextV, err = env.CreateTemp("hjv", right.RecordSize()); err != nil {
				return err
			}
		}

		// Build side: partition-p records enter the table, the rest are
		// offloaded to the next intermediate input.
		if err := env.Scan(curT, env.Polled(func(rec []byte) error {
			if partitionOf(rec, k) == p {
				table.insert(rec)
				return nil
			}
			if nextT != nil {
				return nextT.Append(rec)
			}
			return nil
		})); err != nil {
			return err
		}
		// Probe side.
		if err := env.Scan(curV, env.Polled(func(r []byte) error {
			if partitionOf(r, k) == p {
				return table.probe(record.Key(r), func(l []byte) error {
					return em.emit(l, r)
				})
			}
			if nextV != nil {
				return nextV.Append(r)
			}
			return nil
		})); err != nil {
			return err
		}

		if !last {
			if err := nextT.Close(); err != nil {
				return err
			}
			if err := nextV.Close(); err != nil {
				return err
			}
		}
		if tmpT != nil {
			if err := tmpT.Destroy(); err != nil {
				return err
			}
			if err := tmpV.Destroy(); err != nil {
				return err
			}
		}
		curT, curV = nextT, nextV
		tmpT, tmpV = nextT, nextV
	}
	joined = true
	return out.Close()
}
