package solvercore

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
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
// shape the active-set engine hands its inner passes — with each inner
// solver must reproduce the dense inner solve restricted to the
// working set, when the dense solve keeps the screened coordinates at
// zero. With an unregularized SPD system the Cholesky path gives the
// exact restricted minimizer to compare against.
func TestReducedQuadMatchesDenseRestriction(t *testing.T) {
	const d = 10
	q := reducedTestQuad(d)
	idx := []int{0, 2, 3, 7, 9}
	hs := mat.NewSymPacked(len(idx))
	rs := make([]float64, len(idx))
	for p, ip := range idx {
		for qq := p; qq < len(idx); qq++ {
			hs.Set(p, qq, q.H.At(ip, idx[qq]))
		}
	}
	mat.Gather(rs, q.R, idx)
	rq := Quad{H: hs, R: rs}

	// Exact restricted minimizer via the Cholesky inner solver.
	var c perf.Cost
	exact := CholInner{}.Solve(rq, prox.Zero{}, make([]float64, len(idx)), 1, &c)

	l := EstimateQuadLipschitz(rq.H, 50, nil)
	fista := &FISTAInner{Gamma: 1 / l}
	zf := fista.Solve(rq, prox.Zero{}, make([]float64, len(idx)), 4000, &c)
	zc := CDInner{Lambda: 0}.Solve(rq, nil, make([]float64, len(idx)), 200, &c)
	for p := range exact {
		if diff := math.Abs(zf[p] - exact[p]); diff > 1e-8 {
			t.Fatalf("FISTA reduced solve off at %d: |%g - %g| = %g", p, zf[p], exact[p], diff)
		}
		if diff := math.Abs(zc[p] - exact[p]); diff > 1e-8 {
			t.Fatalf("CD reduced solve off at %d: |%g - %g| = %g", p, zc[p], exact[p], diff)
		}
	}
}
