package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

func TestDistProxNewtonConvergesAndScales(t *testing.T) {
	p, gamma, fstar := testProblem(t, 24, 500, 0.5)
	opts := DistPNOptions{
		Lambda: p.Lambda, Gamma: gamma, B: 0.2,
		Tol: 1e-2, FStar: fstar, Seed: 5,
		OuterIter: 200, InnerIter: 5, K: 1,
	}
	w := dist.NewWorld(4, perf.Comet())
	base, err := SolvePNDistributed(w, p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatalf("PN-FISTA baseline stalled: %g", base.FinalRelErr)
	}
	opts.K = 4
	w2 := dist.NewWorld(4, perf.Comet())
	rc, err := SolvePNDistributed(w2, p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Converged {
		t.Fatalf("PN-RC stalled: %g", rc.FinalRelErr)
	}
	if rc.Cost.Messages >= base.Cost.Messages {
		t.Fatalf("k=4 did not reduce messages: %d vs %d", rc.Cost.Messages, base.Cost.Messages)
	}
}

// --- Quad subproblem tests ---

// smallQuad builds a well-conditioned random PSD quadratic.
func smallQuad(d int, seed uint64) solvercore.Quad {
	p := data.Generate(data.GenSpec{D: d, M: 4 * d, Density: 1, Seed: seed})
	h := mat.NewDense(d, d)
	r := make([]float64, d)
	cols := make([]int, p.X.Cols)
	for i := range cols {
		cols[i] = i
	}
	// H = (1/m) X X^T + small ridge for strict positive definiteness.
	sampled(p, h, r, cols)
	for i := 0; i < d; i++ {
		h.Set(i, i, h.At(i, i)+0.1)
	}
	return solvercore.Quad{H: h, R: r}
}

func sampled(p *data.Problem, h *mat.Dense, r []float64, cols []int) {
	scale := 1.0 / float64(len(cols))
	for _, j := range cols {
		rows, vals := p.X.Col(j)
		for a, ra := range rows {
			for b, rb := range rows {
				h.Set(ra, rb, h.At(ra, rb)+scale*vals[a]*vals[b])
			}
			r[ra] += scale * p.Y[j] * vals[a]
		}
	}
}

// TestFISTAInnerAndCDInnerAgree holds the FISTA inner solver to exact
// cyclic coordinate descent (cdSolve) on an l1 subproblem.
func TestFISTAInnerAndCDInnerAgree(t *testing.T) {
	q := smallQuad(10, 7)
	g := prox.L1{Lambda: 0.05}
	l := solvercore.EstimateQuadLipschitz(q.H, 50, nil)
	z0 := make([]float64, 10)
	zf := (&solvercore.FISTAInner{Gamma: 1 / l}).Solve(q, g, z0, 2000, nil)
	zc := cdSolve(q.H.(*mat.Dense), q.R, 0.05, 500)
	var diff float64
	for i := range zf {
		diff = math.Max(diff, math.Abs(zf[i]-zc[i]))
	}
	if diff > 1e-6 {
		t.Fatalf("inner solvers disagree: max |dz| = %g", diff)
	}
	// Both must satisfy the subgradient optimality condition of
	// min (1/2) z^T H z - R^T z + lambda ||z||_1:
	// |(Hz - R)_i| <= lambda where z_i = 0, = -lambda*sign(z_i) else.
	grad := make([]float64, 10)
	q.Grad(grad, zf, nil)
	for i, zi := range zf {
		switch {
		case zi == 0:
			if math.Abs(grad[i]) > 0.05+1e-6 {
				t.Fatalf("KKT violated at zero coord %d: %g", i, grad[i])
			}
		default:
			if math.Abs(grad[i]+0.05*sign(zi)) > 1e-6 {
				t.Fatalf("KKT violated at coord %d: grad %g, z %g", i, grad[i], zi)
			}
		}
	}
}

// cdSolve minimizes (1/2) z^T H z - r^T z + lambda ||z||_1 from zero by
// iters sweeps of exact cyclic coordinate descent, each coordinate's
// closed-form lasso update (Wu & Lange 2008) in turn. H must have a
// positive diagonal.
func cdSolve(h *mat.Dense, r []float64, lambda float64, iters int) []float64 {
	d := h.Rows
	z, hz := make([]float64, d), make([]float64, d)
	for sweep := 0; sweep < iters; sweep++ {
		for i := 0; i < d; i++ {
			hii := h.At(i, i)
			zi := prox.SoftThreshold(r[i]-(hz[i]-hii*z[i]), lambda) / hii
			if delta := zi - z[i]; delta != 0 {
				z[i] = zi
				for k := range hz {
					hz[k] += delta * h.At(k, i)
				}
			}
		}
	}
	return z
}

func sign(x float64) float64 {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}

// TestQuadValueAndGrad: Phi(z) = z1^2 + 2 z2^2 - 2 z1 - 4 z2 has
// gradient (2 z1 - 2, 4 z2 - 4), zero at its minimizer (1, 1). Quad
// keeps no value method; since grad Phi(z) = H z - r, the value is
// Phi(z) = (1/2) z^T (grad Phi(z) - r), read here through Grad.
func TestQuadValueAndGrad(t *testing.T) {
	q := solvercore.Quad{H: mat.DenseOf(2, 2, []float64{2, 0, 0, 4}), R: []float64{2, 4}}
	g := make([]float64, 2)
	q.Grad(g, []float64{1, 1}, nil)
	if g[0] != 0 || g[1] != 0 {
		t.Fatalf("grad at minimizer = %v", g)
	}
	value := func(z []float64) float64 {
		q.Grad(g, z, nil)
		var v float64
		for i := range z {
			v += z[i] * (g[i] - q.R[i])
		}
		return v / 2
	}
	if v := value([]float64{0, 0}); v != 0 {
		t.Fatalf("Phi(0) = %g", v)
	}
	if v := value([]float64{1, 1}); v != -3 {
		t.Fatalf("Phi(min) = %g, want -3", v)
	}
}

func TestNewSubproblemAnchoring(t *testing.T) {
	// The subproblem gradient at the anchor w must equal grad f(w):
	// Phi'(w) = H w - (H w - grad) = grad.
	q := smallQuad(6, 8)
	w := []float64{1, -1, 0.5, 0, 2, -0.3}
	grad := []float64{0.1, -0.2, 0.3, 0, -0.1, 0.5}
	sub := solvercore.NewSubproblem(q.H, w, grad, nil)
	got := make([]float64, 6)
	sub.Grad(got, w, nil)
	for i := range got {
		if math.Abs(got[i]-grad[i]) > 1e-12 {
			t.Fatalf("anchored grad[%d] = %g, want %g", i, got[i], grad[i])
		}
	}
}

func TestEstimateQuadLipschitzDiagonal(t *testing.T) {
	h := mat.NewDense(3, 3)
	h.Set(0, 0, 1)
	h.Set(1, 1, 5)
	h.Set(2, 2, 2)
	l := solvercore.EstimateQuadLipschitz(h, 100, nil)
	if math.Abs(l-5) > 1e-6 {
		t.Fatalf("lambda_max = %g, want 5", l)
	}
	zero := mat.NewDense(3, 3)
	if solvercore.EstimateQuadLipschitz(zero, 10, nil) != 0 {
		t.Fatal("zero matrix should give 0")
	}
}
