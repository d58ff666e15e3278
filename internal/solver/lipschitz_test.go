package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// fullSamplePowerIter is the 30-step matrix-free power iteration on
// XXᵀ/m from the all-ones vector that SampledLipschitz once ran itself
// at b ≥ 1, kept as the oracle of its bits.
func fullSamplePowerIter(x *sparse.CSC) float64 {
	d, m := x.Rows, float64(x.Cols)
	v := make([]float64, d)
	mat.Fill(v, 1)
	gv := make([]float64, d)
	scratch := make([]float64, x.Cols)
	var lam float64
	for it := 0; it < 30; it++ {
		x.MulVecT(scratch, v, nil)
		mat.Zero(gv)
		x.MulVec(gv, scratch, nil)
		mat.Scal(1/m, gv, nil)
		lam = mat.Nrm2(gv, nil)
		if lam == 0 {
			return 0
		}
		for i := range v {
			v[i] = gv[i] / lam
		}
	}
	return lam
}

// TestSampledLipschitzFullSample pins SampledLipschitz at b ≥ 1 — the
// power iteration of prox.EstimateLipschitz from the all-ones vector,
// plus 5 % — to its bits: the recorded values on a sparse and a dense
// shape, and the oracle's on those, at b = 1 and 2, and on zero data.
func TestSampledLipschitzFullSample(t *testing.T) {
	for _, s := range []struct {
		name string
		m, d int
		bits uint64
	}{{"covtype", 600, 24, 0x3fd1fc0ed68449d2}, {"epsilon", 240, 16, 0x3ffb691711b86099}} {
		p, err := data.LoadWith(s.name, s.m, s.d, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.05 * fullSamplePowerIter(p.X)
		for _, b := range []float64{1, 2} {
			got := SampledLipschitz(p.X, p.Y, b, 8, 3)
			if math.Float64bits(got) != s.bits || got != want {
				t.Fatalf("%s b=%g: %#x (%.17g), recorded %#x, oracle %.17g", s.name, b, math.Float64bits(got), got, s.bits, want)
			}
		}
	}
	zero := &sparse.CSC{Rows: 3, Cols: 4, ColPtr: make([]int, 5)}
	if got := SampledLipschitz(zero, make([]float64, 4), 1, 8, 3); got != 0 {
		t.Fatalf("zero data: %g", got)
	}
}
