package joins

import (
	"wlpm/internal/algo"
	"wlpm/internal/cost"
	"wlpm/internal/record"
	"wlpm/internal/storage"
)

// LazyHash is LaJ (§2.2.3): standard hash join made lazy. When a scanned
// record does not belong to the partition currently being processed, the
// algorithm does not write it back as HJ would; it pays the penalty of
// rescanning the whole input on the next iteration instead. Per Table 1
// the savings are (k−i)(M+M_T)·λ·r per iteration and the cumulative
// penalty (i−1)(M+M_T)·r; once the penalty overtakes the savings —
// iteration n = ⌊k/(λ+1)⌋ of the current input (Eq. 11) — the iteration
// materializes the surviving records as fresh intermediate inputs and the
// algorithm reverts to being lazy.
//
// Like HJ, LaJ's builds are fused with its (re)scans — a scanned record
// either enters the current table or flows to the materialization — so
// the build order is the survivor order and the phase stays serial at
// every parallelism level.
type LazyHash struct{}

// NewLazyHash returns the LaJ operator.
func NewLazyHash() *LazyHash { return &LazyHash{} }

// Name implements Algorithm.
func (j *LazyHash) Name() string { return "LaJ" }

// Join implements Algorithm.
func (j *LazyHash) Join(env *algo.Env, left, right, out storage.Collection) error {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	k := partitionCount(env, left.Len(), left.RecordSize())
	lambda := env.Lambda()
	em := newEmitter(out, left.RecordSize(), right.RecordSize())
	table := newHashTable(left.RecordSize(), buildCap(env, left.RecordSize()))

	curT, curV := left, right
	var tmpT, tmpV storage.Collection   // owned temps backing curT/curV
	var nextT, nextV storage.Collection // next materialized intermediate inputs
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
	sinceMat := 1 // iterations since the last materialization (Algorithm's n)

	for p := 0; p < k; p++ {
		kRem := k - p
		materialize := sinceMat >= cost.LazyHashJoinMaterializeIteration(kRem, lambda) && p < k-1

		nextT, nextV = nil, nil
		if materialize {
			var err error
			if nextT, err = env.CreateTemp("lajt", left.RecordSize()); err != nil {
				return err
			}
			if nextV, err = env.CreateTemp("lajv", right.RecordSize()); err != nil {
				return err
			}
		}

		table.reset()
		if err := env.Scan(curT, env.Polled(func(rec []byte) error {
			part := partitionOf(rec, k)
			if part == p {
				table.insert(rec)
				return nil
			}
			if nextT != nil && part > p {
				return nextT.Append(rec)
			}
			return nil
		})); err != nil {
			return err
		}
		if err := env.Scan(curV, env.Polled(func(r []byte) error {
			part := partitionOf(r, k)
			if part == p {
				return table.probe(record.Key(r), func(l []byte) error {
					return em.emit(l, r)
				})
			}
			if nextV != nil && part > p {
				return nextV.Append(r)
			}
			return nil
		})); err != nil {
			return err
		}

		if materialize {
			if err := nextT.Close(); err != nil {
				return err
			}
			if err := nextV.Close(); err != nil {
				return err
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
			sinceMat = 1
		} else {
			sinceMat++
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
	joined = true
	return out.Close()
}
