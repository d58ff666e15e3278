package solvercore

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// Hessian is the symmetric-operator interface the subproblem machinery
// and the engines consume. Every production Hessian is a *mat.SymPacked
// (upper-triangle packed, half the footprint, the engines' one wire
// format); *mat.Dense, the tests' full-storage dense reference,
// satisfies it too, so they run the same inner solver through it.
type Hessian interface {
	// Dim returns the operator dimension d.
	Dim() int
	// MulVec computes y = H x.
	MulVec(y, x []float64, c *perf.Cost)
}

// Quad is the Proximal Newton subproblem of Eq. 19 in normalized form:
//
//	minimize  Phi(z) + g(z),  Phi(z) = (1/2) z^T H z - R^T z
//
// with gradient Phi'(z) = H z - R (the same shape as the l1 least
// squares gradient, Eq. 5 — the observation Section 3.2 builds
// Hessian-reuse on). H must be symmetric positive semidefinite.
type Quad struct {
	H Hessian
	R []float64
}

// NewSubproblem builds the Eq. 19 subproblem at anchor w: with
// grad = grad f(w), the smooth part (1/2)(z-w)^T H (z-w) + grad^T (z-w)
// equals (1/2) z^T H z - (H w - grad)^T z up to a constant, so
// R = H w - grad.
func NewSubproblem(h Hessian, w, grad []float64, c *perf.Cost) Quad {
	r := make([]float64, len(w))
	h.MulVec(r, w, c)
	mat.Axpy(-1, grad, r, c)
	return Quad{H: h, R: r}
}

// Grad writes H z - R into g.
func (q Quad) Grad(g, z []float64, c *perf.Cost) {
	q.H.MulVec(g, z, c)
	mat.Axpy(-1, q.R, g, c)
}

// FISTAInner solves the subproblem with FISTA steps at step size Gamma
// (1/lambda_max(H); use EstimateQuadLipschitz). This is the paper's
// inner solver of choice (Section 2.2). The solver carries its four
// work vectors across Solve calls (sized lazily to the largest
// subproblem seen), so per-round subproblem solves are allocation-free;
// use one FISTAInner per concurrent solve.
type FISTAInner struct {
	Gamma float64

	zPrev, zCurr, v, grad []float64
}

// Solve runs iters accelerated proximal gradient steps on q. The
// returned slice is the solver's own buffer, valid until the next
// Solve.
func (f *FISTAInner) Solve(q Quad, g prox.Operator, z0 []float64, iters int, c *perf.Cost) []float64 {
	d := len(z0)
	if cap(f.zPrev) < d {
		f.zPrev = make([]float64, d)
		f.zCurr = make([]float64, d)
		f.v = make([]float64, d)
		f.grad = make([]float64, d)
	}
	zPrev, zCurr := f.zPrev[:d], f.zCurr[:d]
	v, grad := f.v[:d], f.grad[:d]
	copy(zPrev, z0)
	copy(zCurr, z0)
	t := 1.0
	for n := 0; n < iters; n++ {
		tNext := (1 + math.Sqrt(1+4*t*t)) / 2
		mu := (t - 1) / tNext
		t = tNext
		mat.Sub(v, zCurr, zPrev, c)
		mat.AddScaled(v, zCurr, mu, v, c)
		q.Grad(grad, v, c)
		copy(zPrev, zCurr)
		mat.AddScaled(zCurr, v, -f.Gamma, grad, c)
		g.Apply(zCurr, zCurr, f.Gamma, c)
	}
	return zCurr
}

// EstimateQuadLipschitz estimates lambda_max(H) by power iteration.
func EstimateQuadLipschitz(h Hessian, iters int, c *perf.Cost) float64 {
	d := h.Dim()
	v := make([]float64, d)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(d))
	}
	hv := make([]float64, d)
	var lam float64
	for it := 0; it < iters; it++ {
		h.MulVec(hv, v, c)
		lam = mat.Nrm2(hv, c)
		if lam == 0 {
			return 0
		}
		for i := range v {
			v[i] = hv[i] / lam
		}
		c.AddFlops(int64(d))
	}
	return lam
}
