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
// HJ is the same loop materializing on every iteration. The builds are
// fused with the (re)scans — a scanned record either enters the current
// table or flows to the materialization, in scan order — so the build
// cannot be lifted to workers without reordering the survivor stream,
// and both stay serial at every parallelism level.
type LazyHash struct{}

// NewLazyHash returns the LaJ operator.
func NewLazyHash() *LazyHash { return &LazyHash{} }

// Name implements Algorithm.
func (j *LazyHash) Name() string { return cost.JoinLaJ }

// Join implements Algorithm.
func (j *LazyHash) Join(env *algo.Env, left, right, out storage.Collection) error {
	return iterativeHash(env, left, right, out, cost.LazyHashJoinMaterializeIteration)
}

// Profile implements Algorithm.
func (j *LazyHash) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile {
	return em.LaJ(t, v, m, lambda)
}

// Hash is HJ: the standard iterative hash join of §2.2.3 (Table 1's left
// half). Iteration i builds an in-memory table from the current left
// input's partition-i records and offloads every other record back to
// persistent memory; the right input is processed symmetrically. Each
// iteration therefore shrinks both inputs by one partition — at the price
// of rewriting the survivors every time, the write pathology lazy hash
// join removes. It is LaJ's loop under the policy "materialize on every
// iteration", and serial at every parallelism level for LaJ's reason.
type Hash struct{}

// NewHash returns the HJ operator.
func NewHash() *Hash { return &Hash{} }

// Name implements Algorithm.
func (j *Hash) Name() string { return cost.JoinHJ }

// Join implements Algorithm.
func (j *Hash) Join(env *algo.Env, left, right, out storage.Collection) error {
	everyIteration := func(kRem int, lambda float64) int { return 1 }
	return iterativeHash(env, left, right, out, everyIteration)
}

// Profile implements Algorithm.
func (j *Hash) Profile(em cost.Emit, t, v, m, lambda float64) cost.Profile { return em.HJ(t, v, m) }

// iterativeHash is the one iterative hash join loop: iteration p builds
// a table over the current left input's partition-p records and probes
// it with the right input's. materializeAt says after how many
// iterations over the current inputs, with kRem partitions to go at
// write/read ratio λ, the survivors are written out as the next inputs:
// LaJ passes Eq. 11, HJ does so every time.
func iterativeHash(env *algo.Env, left, right, out storage.Collection, materializeAt func(kRem int, lambda float64) int) (err error) {
	if err := checkArgs(env, left, right, out); err != nil {
		return err
	}
	k := partitionCount(env, left.Len(), left.RecordSize())
	lambda := env.Lambda()
	ws := newWorkingSet(env, left, right, out)
	table, em := ws.table, ws.em

	cur := []storage.Collection{left, right} // the current inputs T and V
	var tmp, next []storage.Collection       // the owned temps backing cur; the next materialized inputs
	defer func() {
		// Error exit: sweep every live intermediate. Destroy is
		// idempotent, so next aliasing tmp after a rotation is safe.
		if err != nil {
			destroySubs(tmp)
			destroySubs(next)
		}
	}()
	sinceMat := 1 // iterations since the last materialization (Algorithm's n)

	for p := 0; p < k; p++ {
		materialize := sinceMat >= materializeAt(k-p, lambda) && p < k-1
		next = make([]storage.Collection, 2)
		if materialize {
			for i, prefix := range []string{"lajt", "lajv"} {
				if next[i], err = env.CreateTemp(prefix, cur[i].RecordSize()); err != nil {
					return err
				}
			}
		}
		// Both inputs are scanned alike: partition p's records are taken,
		// later partitions' flow to the materialization if there is one,
		// earlier ones (joined, but still in a lazily re-read input) drop.
		// Two closures, not one routing helper: it cost LaJ 12% CPU.
		table.reset()
		nextT, nextV := next[0], next[1]
		if err = env.Scan(cur[0], func(rec []byte) error {
			part := partitionOf(rec, k)
			if part == p {
				table.insert(rec)
				return nil
			}
			if nextT != nil && part > p {
				return nextT.Append(rec)
			}
			return nil
		}); err != nil {
			return err
		}
		if err = env.Scan(cur[1], func(r []byte) error {
			part := partitionOf(r, k)
			if part == p {
				return table.probe(record.Key(r), func(l []byte) error { return em.match(l, r) })
			}
			if nextV != nil && part > p {
				return nextV.Append(r)
			}
			return nil
		}); err != nil {
			return err
		}
		if !materialize {
			sinceMat++
			continue
		}
		if err = closeAll(next); err != nil {
			return err
		}
		if err = destroyAll(tmp); err != nil {
			return err
		}
		cur, tmp, sinceMat = next, next, 1
	}
	if err = destroyAll(tmp); err != nil {
		return err
	}
	return out.Close()
}
