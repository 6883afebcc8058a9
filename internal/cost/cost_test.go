package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentSortEndpoints(t *testing.T) {
	const tt, m, lambda = 100000, 5000, 15
	// x = 1 is external mergesort, x = 0 is pure selection sort.
	if got, want := SegmentSortCost(1, tt, m, lambda), ExternalMergeSortCost(tt, m, lambda); math.Abs(got-want) > want*0.05 {
		t.Errorf("SegS(1) = %v, ExMS = %v", got, want)
	}
	s0 := SegmentSortCost(0, tt, m, lambda)
	sel := SelectionSortCost(tt, m, lambda)
	if math.Abs(s0-sel) > sel*0.05 {
		t.Errorf("SegS(0) = %v, SelS = %v", s0, sel)
	}
}

func TestSegmentSortOptimalXMinimizes(t *testing.T) {
	cases := []struct{ t, m, lambda float64 }{
		{100000, 5000, 15},
		{100000, 10000, 8},
		{50000, 1000, 5},
		{200000, 4000, 2},
	}
	for _, tc := range cases {
		if !SegmentSortApplicable(tc.t, tc.m, tc.lambda) {
			continue
		}
		x := SegmentSortOptimalX(tc.t, tc.m, tc.lambda)
		if x <= 0 || x >= 1 {
			t.Errorf("optimal x = %v for %+v, want interior", x, tc)
			continue
		}
		opt := SegmentSortCost(x, tc.t, tc.m, tc.lambda)
		for g := 0.05; g < 1; g += 0.05 {
			if c := SegmentSortCost(g, tc.t, tc.m, tc.lambda); c < opt*0.999 {
				t.Errorf("grid x=%v cost %v beats 'optimal' x=%v cost %v for %+v", g, c, x, opt, tc)
				break
			}
		}
	}
}

func TestSegmentSortApplicability(t *testing.T) {
	// λ beyond 2(|T|/M)lnM makes the model inapplicable.
	if SegmentSortApplicable(1000, 900, 50) {
		t.Error("applicable with tiny |T|/M and huge λ")
	}
	if !SegmentSortApplicable(100000, 1000, 15) {
		t.Error("not applicable in the paper's main regime")
	}
	if x := SegmentSortOptimalX(1000, 900, 1e9); x != 0 {
		t.Errorf("inapplicable model returned x = %v, want 0", x)
	}
}

func TestLazySortThresholdMatchesEq5(t *testing.T) {
	// Eq. 5: n = ⌊|T|λ / (M(λ+1))⌋.
	if got := LazySortMaterializeIteration(160000, 8000, 15); got != 18 {
		t.Errorf("n = %d, want 18", got)
	}
	if got := LazySortMaterializeIteration(100, 1000, 15); got != 1 {
		t.Errorf("tiny input n = %d, want clamp to 1", got)
	}
}

func TestGraceInvariants(t *testing.T) {
	const tt, v, lambda = 1e4, 1e5, 5.0
	// HybJ at (1,1) degenerates to Grace join.
	m := math.Sqrt(1.2 * tt)
	if got, want := HybridJoinCost(1, 1, tt, v, m, lambda), GraceJoinCost(tt, v, lambda); math.Abs(got-want) > 1e-6 {
		t.Errorf("HybJ(1,1) = %v, Grace = %v", got, want)
	}
	// SegJ materializing all k partitions degenerates to Grace join.
	k := 9
	if got, want := SegmentedGraceCost(float64(k), k, tt, v, lambda), GraceJoinCost(tt, v, lambda); math.Abs(got-want) > 1e-6 {
		t.Errorf("SegJ(x=k) = %v, Grace = %v", got, want)
	}
}

func TestHybridJoinSaddleIsCritical(t *testing.T) {
	const tt, v, m, lambda = 5e4, 5e5, 3e3, 5.0
	x, y := HybridJoinSaddle(tt, v, m, lambda)
	if x <= 0 || x >= 1 || y <= 0 || y >= 1 {
		t.Fatalf("saddle (%v, %v) not interior", x, y)
	}
	// Finite-difference partials vanish at the saddle (Eqs. 7–8).
	const h = 1e-6
	dx := (HybridJoinCost(x+h, y, tt, v, m, lambda) - HybridJoinCost(x-h, y, tt, v, m, lambda)) / (2 * h)
	dy := (HybridJoinCost(x, y+h, tt, v, m, lambda) - HybridJoinCost(x, y-h, tt, v, m, lambda)) / (2 * h)
	scale := HybridJoinCost(x, y, tt, v, m, lambda)
	if math.Abs(dx) > scale*1e-3 || math.Abs(dy) > scale*1e-3 {
		t.Errorf("partials at saddle: dJ/dx = %v, dJ/dy = %v (scale %v)", dx, dy, scale)
	}
}

func TestLazyHashJoinThreshold(t *testing.T) {
	// λ-consistent form: n = ⌊kλ/(λ+1)⌋ (see the doc comment for why the
	// printed Eq. 11 drops the λ).
	if got := LazyHashJoinMaterializeIteration(16, 15); got != 15 {
		t.Errorf("n = %d, want 15", got)
	}
	if got := LazyHashJoinMaterializeIteration(2, 1); got != 1 {
		t.Errorf("n = %d, want 1", got)
	}
	// Laziness extends with λ: more expensive writes → later materialization.
	if LazyHashJoinMaterializeIteration(20, 2) >= LazyHashJoinMaterializeIteration(20, 19) {
		t.Error("threshold not increasing in λ")
	}
}

func TestSegmentedGraceBound(t *testing.T) {
	// With k small and λ large the bound is permissive; Eq. 10 shape.
	b := SegmentedGraceBeatsGraceBound(3, 15)
	if b <= 0 {
		t.Errorf("bound %v not positive for k=3 λ=15", b)
	}
	// Verify against the cost functions: x below the bound beats Grace.
	const tt, v = 1e4, 1e5
	for _, x := range []float64{0.5, 1, 1.5, 2} {
		if x >= b {
			continue
		}
		if SegmentedGraceCost(x, 3, tt, v, 15) >= GraceJoinCost(tt, v, 15) {
			t.Errorf("x=%v below bound %v but does not beat Grace", x, b)
		}
	}
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := KendallTau(a, a); got != 1 {
		t.Errorf("τ(identical) = %v, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Errorf("τ(reversed) = %v, want -1", got)
	}
	if got := KendallTau(a, []float64{1, 2}); got != 0 {
		t.Errorf("τ(length mismatch) = %v, want 0", got)
	}
	// One swapped adjacent pair: τ = 1 − 2/10 = 0.8.
	if got := KendallTau(a, []float64{2, 1, 3, 4, 5}); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("τ(one swap) = %v, want 0.8", got)
	}
}

func TestQuickKendallBounds(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		tau := KendallTau(a, b)
		return tau >= -1 && tau <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyHashJoinLedgerTable1(t *testing.T) {
	// Table 1 with unit = M + M_T: check the printed patterns.
	rows := LazyHashJoinLedger(5, 60, 40, 2)
	unit := 100.0
	for i, row := range rows {
		it := float64(i + 1)
		if row.StandardReads != (5-it+1)*unit {
			t.Errorf("row %d standard reads = %v", i+1, row.StandardReads)
		}
		if row.StandardWrites != (5-it)*unit {
			t.Errorf("row %d standard writes = %v", i+1, row.StandardWrites)
		}
		if row.LazyReads != 5*unit || row.LazyWrites != 0 {
			t.Errorf("row %d lazy profile = (%v, %v)", i+1, row.LazyReads, row.LazyWrites)
		}
		if row.Savings != (5-it)*unit*2 {
			t.Errorf("row %d savings = %v", i+1, row.Savings)
		}
		if row.Penalty != (it-1)*unit {
			t.Errorf("row %d penalty = %v", i+1, row.Penalty)
		}
	}
}

func TestHeatmapFig2(t *testing.T) {
	for _, ratio := range []float64{1, 10, 100} {
		for _, lambda := range []float64{2, 5, 8} {
			h := HybridJoinHeatmap(ratio, lambda, 21)
			min, max := h.MinMax()
			if !(min < max) {
				t.Errorf("ratio=%v λ=%v: degenerate heatmap [%v, %v]", ratio, lambda, min, max)
			}
			// The Grace corner (1,1) must be cheap relative to the NL
			// corner (0,0) when inputs are equal-sized (Fig. 2 top row).
			if ratio == 1 {
				if h.Cost[h.N-1][h.N-1] >= h.Cost[0][0] {
					t.Errorf("ratio=1 λ=%v: Grace corner %v not cheaper than NL corner %v",
						lambda, h.Cost[h.N-1][h.N-1], h.Cost[0][0])
				}
			}
		}
	}
}
