package cost

import (
	"math"

	"wlpm/internal/algo"
)

// Heatmap is a grid of HybJ cost values over the (x, y) unit square,
// reproducing one panel of Fig. 2.
type Heatmap struct {
	Ratio  float64 // |T|/|V| cardinality ratio (T the smaller input)
	Lambda float64
	N      int         // grid resolution per axis
	Cost   [][]float64 // Cost[iy][ix] = Jh(x=ix/(N-1), y=iy/(N-1))
}

// HybridJoinHeatmap evaluates Eq. 6 on an n×n grid for the given input
// ratio and λ, normalizing |V| = 1 000 000 buffers, |T| = ratio⁻¹… — to
// match the paper's panels T is the smaller input, so |T| = |V|/ratio
// with ratio ≥ 1 interpreted as |V|/|T|. Memory is the paper's Fig. 2
// assumption M = √(f·|T|), f = algo.HashTableExpansion (the
// Grace-applicability boundary).
func HybridJoinHeatmap(ratioVoverT, lambda float64, n int) *Heatmap {
	if n < 2 {
		n = 2
	}
	v := 1_000_000.0
	t := v / ratioVoverT
	m := math.Sqrt(algo.HashTableExpansion * t)
	h := &Heatmap{Ratio: ratioVoverT, Lambda: lambda, N: n, Cost: make([][]float64, n)}
	for iy := 0; iy < n; iy++ {
		h.Cost[iy] = make([]float64, n)
		y := float64(iy) / float64(n-1)
		for ix := 0; ix < n; ix++ {
			x := float64(ix) / float64(n-1)
			h.Cost[iy][ix] = HybridJoinCost(x, y, t, v, m, lambda)
		}
	}
	return h
}

// Min and Max report the extreme cells, for shading.
func (h *Heatmap) MinMax() (min, max float64) {
	min, max = h.Cost[0][0], h.Cost[0][0]
	for _, row := range h.Cost {
		for _, c := range row {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
	}
	return min, max
}
