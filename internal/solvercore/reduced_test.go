package solvercore

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// reducedTestQuad builds a small SPD subproblem: H = B B^T + I in
// packed storage, R fixed.
func reducedTestQuad(d int) Quad {
	h := mat.NewSymPacked(d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := 1 / float64(i+j+1)
			if i == j {
				v += float64(d)
			}
			h.Set(i, j, v)
		}
	}
	r := make([]float64, d)
	for i := range r {
		r[i] = float64(i%3) - 1 + 0.5
	}
	return Quad{H: h, R: r}
}

// TestReducedQuadMatchesDenseRestriction: solving the reduced
// subproblem — the principal submatrix H[idx, idx] and R[idx], the
// shape the active-set engine hands its inner passes — must reproduce
// the dense minimizer restricted to the working set, when the dense
// solve keeps the screened coordinates at zero. With an unregularized
// SPD system that minimizer is the z, zero off idx, at which the dense
// gradient H z - R vanishes on idx.
func TestReducedQuadMatchesDenseRestriction(t *testing.T) {
	const d = 10
	q := reducedTestQuad(d)
	h := q.H.(*mat.SymPacked)
	idx := []int{0, 2, 3, 7, 9}
	hs := mat.NewSymPacked(len(idx))
	rs := make([]float64, len(idx))
	for p, ip := range idx {
		for qq := p; qq < len(idx); qq++ {
			hs.Set(p, qq, h.At(ip, idx[qq]))
		}
	}
	mat.Gather(rs, q.R, idx)
	rq := Quad{H: hs, R: rs}

	l := EstimateQuadLipschitz(rq.H, 50, nil)
	fista := &FISTAInner{Gamma: 1 / l}
	zs := fista.Solve(rq, prox.Zero{}, make([]float64, len(idx)), 4000, nil)
	z := make([]float64, d)
	mat.Scatter(z, zs, idx)
	g := make([]float64, d)
	q.Grad(g, z, nil)
	for _, i := range idx {
		if math.Abs(g[i]) > 1e-8 {
			t.Fatalf("dense gradient at the reduced solve is %g on working coordinate %d", g[i], i)
		}
	}
}
