package solver

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// SampledLipschitz estimates the effective Lipschitz constant of the
// stochastic gradient operator: the largest eigenvalue over trial draws
// of the subsampled Gram matrix H_n = (1/mbar) X I I^T X^T at sampling
// rate b. For small b the subsampled spectrum inflates well above the
// population L = lambda_max((1/m) X X^T) — up to roughly
// (1 + sqrt(d/mbar))^2 / (1 + sqrt(d/m))^2 for isotropic data — and a
// FISTA step tuned to the population L diverges. The Section 5
// experiments therefore set gamma = 1/SampledLipschitz(b), the
// practical counterpart of the Theorem 1 step bound.
//
// For b = 1 the function reduces to the exact power-iteration estimate
// of L. A 5% safety margin is included.
func SampledLipschitz(x *sparse.CSC, y []float64, b float64, trials int, seed uint64) float64 {
	m := x.Cols
	d := x.Rows
	mbar := int(b * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	if mbar >= m {
		ones := make([]float64, d)
		mat.Fill(ones, 1)
		return 1.05 * prox.EstimateLipschitz(x, 30, ones, nil)
	}
	if trials < 1 {
		trials = 8
	}
	src := rng.NewSource(seed ^ 0x5eed_11b5)
	h := mat.NewSymPacked(d)
	r := make([]float64, d)
	var lmax float64
	for trial := 0; trial < trials; trial++ {
		cols := src.Stream(3, trial).SampleWithoutReplacement(m, mbar)
		h.Zero()
		mat.Zero(r)
		sparse.SampledGramPacked(x, h, r, y, cols, 1/float64(mbar), nil)
		if l := solvercore.EstimateQuadLipschitz(h, 30, nil); l > lmax {
			lmax = l
		}
	}
	// The trial maximum underestimates the tail of the per-iteration
	// spectrum over a long run; a 20% margin covers the excess with
	// high probability (the concentration width is O(sqrt(d/mbar))).
	return 1.2 * lmax
}
