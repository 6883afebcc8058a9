// Package cost implements the paper's analytic cost model (§2) for every
// sort and join algorithm, the knob-placement solvers derived from it, and
// the Kendall-τ concordance machinery of the validation study (§4.2.3).
//
// Conventions: sizes t (=|T|) and v (=|V|), memory m (=M) are measured in
// buffers (the paper's cacheline-multiple I/O unit); the read cost r is
// normalized to 1, so every returned cost is in units of buffer reads;
// lambda (=λ) is the write/read cost ratio, λ > 1. Ceilings and floors
// are omitted exactly as in the paper's analysis. The profiles, which
// model the shipped kernels rather than the paper's expressions, count
// merge passes the way the kernels make them: whole passes at the
// kernels' fan-in, one buffer per open run and per streaming source plus
// one for the output (extraMergePasses, mergeFanIn).
//
// The paper's §3.1 runtime rules are not predicates here; each is decided
// once, where the engine takes the decision:
//
//	deferral           exec's chain view: a zero-write collection re-run
//	                   on every scan (internal/exec/chain.go); a join's
//	                   projected build side is one, and Emit.Source
//	                   charges each scan of it at the base's width
//	process-to-append  the fed intake (sorts.Intake), chosen by
//	                   stageAlloc.sortPlan when Emit.FedExMS prices no
//	                   dearer than a temp plus the best sort over it; a
//	                   group-by's intake folds equal keys in memory
//	                   before the first write, and Emit.Folded carries
//	                   what its runs hold instead of the input; an
//	                   intake whose runs would fit memory writes none
//	read-over-write,   the lazy algorithms' materialization points:
//	multi-process      LazySortMaterializeIteration (Eq. 5) and
//	                   LazyHashJoinMaterializeIteration (Eq. 11)
//	eager-partition    the Grace partition phase (joins.partitionInto)
package cost

import "math"

// --- Sorting (§2.1) ---

// ExternalMergeSortCost is the cost of ExMS with replacement-selection
// run formation producing runs of ≈ 2M: the run-formation pass reads and
// writes the input once, and each of the log_M(|T|/2M) merge passes does
// the same. This is Eq. 1's x = 1 specialization.
func ExternalMergeSortCost(t, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	return t*(1+lambda) + t*(1+lambda)*mergePasses(t/(2*m), m)
}

// SelectionSortCost is the multi-pass selection sort: |T|/M read passes
// over the input plus exactly one write per buffer (§2.1.1:
// r·|T|·(|T|/M + λ)).
func SelectionSortCost(t, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	return t * (t/m + lambda)
}

// SegmentSortCost is Eq. 1: fraction x of the input through external
// mergesort run formation, the rest through selection sort into one long
// run, then a merge of all runs.
func SegmentSortCost(x, t, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	rest := (1 - x) * t
	c := x*t*(1+lambda) + rest*(rest/m+lambda)
	c += t * (1 + lambda) * mergePasses(x*t/(2*m)+1, m)
	return c
}

// mergePasses is log_M(runs), clamped at zero (a single run needs no
// merge pass beyond the final one, which the callers account as writing
// the output).
func mergePasses(runs, m float64) float64 {
	if runs <= 1 || m <= 1 {
		return 0
	}
	return math.Log(runs) / math.Log(m)
}

// SegmentSortOptimalX solves Eq. 3 for the write intensity x that
// minimizes Eq. 2, returning the admissible plus-sign root of Eq. 4
// clamped into [0, 1]. When the model is inapplicable (λ too large for
// the discriminant, Eq. 4's sanity conditions) it returns 0: the
// write-minimal setting.
func SegmentSortOptimalX(t, m, lambda float64) float64 {
	if t <= 0 || m <= 1 {
		return 0
	}
	lnM := math.Log(m)
	disc := lnM * (lnM*t*t + 2*t*m*lnM - lambda*m*m)
	if disc < 0 {
		return 0
	}
	x := (-lnM*t + math.Sqrt(disc)) / (m * lnM)
	return clamp01(x)
}

// SegmentSortApplicable is the validity bound derived in §2.1.1's sanity
// check: the cost-minimizing x lies in (0,1) only when
// λ < 2·(|T|/M)·ln M.
func SegmentSortApplicable(t, m, lambda float64) bool {
	if t <= 0 || m <= 1 {
		return false
	}
	return lambda < 2*(t/m)*math.Log(m)
}

// HybridSortCost models HybS (§2.1.2, Algorithm 1). The paper does not
// print a closed form; this model follows the algorithm's structure the
// same way Eq. 1 follows segment sort's: the selection region (x·M) holds
// records written exactly once, directly to the output; the remaining
// input passes through replacement selection with (1−x)·M memory
// (one run write and read each), and the resulting runs of ≈ 2(1−x)M
// buffers are merged with fan-in M. Unlike the paper's continuous
// log_M(runs) (adequate for ExMS's many runs), the pass count here is
// discrete: at realistic budgets all runs merge in a single final pass,
// which is what makes higher intensity cheaper — the measured behaviour
// of Fig. 9.
func HybridSortCost(x, t, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	rr := (1 - x) * m
	if rr < 1 {
		rr = 1
	}
	direct := x * m // buffers emitted straight from the selection region
	if direct > t {
		direct = t
	}
	rest := t - direct
	runs := rest / (2 * rr)
	extra := 0.0 // merge passes beyond the final one
	if runs > 1 && m > 1 {
		if p := math.Ceil(math.Log(runs)/math.Log(m)) - 1; p > 0 {
			extra = p
		}
	}
	// reads: input scan + run re-reads; writes: runs + output.
	return t*(1+lambda) + rest*(1+lambda)*(1+extra)
}

// LazySortMaterializeIteration is Eq. 5: the iteration n at which lazy
// sort should materialize its intermediate input,
// n = ⌊|T|λ / (M(λ+1))⌋, never below 1.
func LazySortMaterializeIteration(t, m, lambda float64) int {
	if m <= 0 {
		return 1
	}
	n := int(t * lambda / (m * (lambda + 1)))
	if n < 1 {
		n = 1
	}
	return n
}

// LazySortCost models LaS for completeness (the paper excludes the lazy
// algorithms from its optimizer validation because their decisions are
// dynamic): with materialization every n-th iteration the expected cost
// interleaves selection scans with periodic rewrites of the shrinking
// input.
func LazySortCost(t, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	total := 0.0
	remaining := t
	for remaining > 0 {
		n := float64(LazySortMaterializeIteration(remaining, m, lambda))
		// n scans of the current input, emitting n·m buffers.
		emitted := n * m
		if emitted > remaining {
			emitted = remaining
		}
		total += n * remaining // reads: n passes (upper bound; passes shrink with bound filtering)
		total += emitted * lambda
		remaining -= emitted
		if remaining > 0 {
			total += remaining * lambda // materialize Ti
		}
	}
	return total
}

// --- Joins (§2.2) ---

// GraceJoinCost is r(|T|+|V|)(2+λ): read, partition-write, re-read both
// inputs (§2.2.2).
func GraceJoinCost(t, v, lambda float64) float64 {
	return (t + v) * (2 + lambda)
}

// HashJoinCost is the standard iterative hash join of §2.2.3 and
// Table 1's left half: k = |T|/M iterations; iteration i reads the
// surviving (k−i+1)/k of both inputs and writes back (k−i)/k of them.
func HashJoinCost(t, v, m, lambda float64) float64 {
	if t <= 0 {
		return 0
	}
	k := math.Ceil(t / m)
	if k < 1 {
		k = 1
	}
	per := (t + v) / k
	reads, writes := 0.0, 0.0
	for i := 1.0; i <= k; i++ {
		reads += (k - i + 1) * per
		writes += (k - i) * per
	}
	return reads + lambda*writes
}

// NestedLoopsJoinCost is block nested loops: read T once plus one pass
// over V per memory-sized block of T; no writes beyond the output.
func NestedLoopsJoinCost(t, v, m float64) float64 {
	if t <= 0 {
		return 0
	}
	return t + math.Ceil(t/m)*v
}

// HybridJoinCost is Eq. 6, the cost of hybrid Grace-nested-loops with
// fractions x of T and y of V processed by Grace join.
func HybridJoinCost(x, y, t, v, m, lambda float64) float64 {
	return (2+lambda)*(x*t+y*v) + (1-x)*t + t*v/m*(1-x*y)
}

// HybridJoinSaddle returns the saddle point (x_h, y_h) of Eq. 6 from
// Eqs. 7–8: y_h = M(λ+1)/|V|, x_h = M(λ+2)/|T|, each clamped to [0, 1].
func HybridJoinSaddle(t, v, m, lambda float64) (x, y float64) {
	if t <= 0 || v <= 0 {
		return 0, 0
	}
	return clamp01(m * (lambda + 2) / t), clamp01(m * (lambda + 1) / v)
}

// SegmentedGraceCost is Eq. 9: scan both inputs once, write and re-read x
// of the k partitions, and re-scan both inputs once per remaining
// partition.
func SegmentedGraceCost(x float64, k int, t, v, lambda float64) float64 {
	if k < 1 {
		k = 1
	}
	kk := float64(k)
	return (t + v) + x*(1+lambda)*(t+v)/kk + (kk-x)*(t+v)
}

// SegmentedGraceBeatsGraceBound is Eq. 10: segmented Grace outperforms
// Grace join when x < (λ+1−k)k / (λ+1−k²). The bound can be vacuous
// (negative or > k) depending on the sign of the denominator; callers
// treat it as a guide, per the paper ("regardless of outperforming Grace
// join, the choice of x is a knob").
func SegmentedGraceBeatsGraceBound(k int, lambda float64) float64 {
	kk := float64(k)
	den := lambda + 1 - kk*kk
	if den == 0 {
		return math.Inf(1)
	}
	return (lambda + 1 - kk) * kk / den
}

// LazyHashJoinMaterializeIteration is the iteration at which lazy hash
// join's rescan penalty overtakes its write savings: n = ⌊kλ/(λ+1)⌋,
// never below 1.
//
// Note on Eq. 11 as printed: the paper states n = ⌊k/(λ+1)⌋, but that
// contradicts both Table 1's ledger (savings (k−i)·unit·λ stay above the
// penalty (i−1)·unit until i ≈ kλ/(λ+1)) and the paper's own Eq. 5, whose
// identical derivation for lazy sort keeps the λ in the numerator
// (n = |T|λ/(M(λ+1)), which with |T| = kM is exactly kλ/(λ+1)). As
// printed, any λ ≥ k−1 would force materialization on every iteration —
// the algorithm would degenerate to standard hash join precisely when
// writes are most expensive. We take the λ-consistent form.
func LazyHashJoinMaterializeIteration(k int, lambda float64) int {
	n := int(float64(k) * lambda / (lambda + 1))
	if n < 1 {
		n = 1
	}
	return n
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
