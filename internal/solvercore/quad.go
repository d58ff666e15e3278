package solvercore

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// Hessian is the symmetric-operator interface the subproblem machinery
// and the engine consume. Every production Hessian is a *mat.SymPacked
// (upper-triangle packed, half the footprint, the engine's one wire
// format); *mat.Dense (full storage) satisfies it too, and the tests'
// dense references run the same inner solvers through it.
type Hessian interface {
	// Dim returns the operator dimension d.
	Dim() int
	// At returns element (i, j).
	At(i, j int) float64
	// MulVec computes y = H x.
	MulVec(y, x []float64, c *perf.Cost)
	// AddScaledCol computes y += s * H[:, j].
	AddScaledCol(j int, s float64, y []float64, c *perf.Cost)
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

// Value returns Phi(z) = (1/2) z^T H z - R^T z.
func (q Quad) Value(z []float64, c *perf.Cost) float64 {
	return q.ValueWith(z, make([]float64, len(z)), c)
}

// ValueWith is Value with caller-owned scratch hz (length len(z),
// overwritten), so evaluation loops run allocation-free.
func (q Quad) ValueWith(z, hz []float64, c *perf.Cost) float64 {
	q.H.MulVec(hz, z, c)
	return 0.5*mat.Dot(z, hz, c) - mat.Dot(q.R, z, c)
}

// QuadInner solves a Quad subproblem approximately, starting from z0,
// for at most iters iterations, and returns the approximate minimizer.
// Implementations must not retain q or z0. The returned slice may be
// scratch owned by the solver, valid only until its next Solve call;
// callers that keep the minimizer must copy it.
type QuadInner interface {
	Solve(q Quad, g prox.Operator, z0 []float64, iters int, c *perf.Cost) []float64
	Name() string
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

// Name identifies the inner solver.
func (f *FISTAInner) Name() string { return "fista" }

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

// CDInner solves the subproblem with exact cyclic coordinate descent;
// each sweep updates every coordinate in closed form (the
// lasso-on-a-quadratic update of Wu & Lange 2008, the alternative inner
// solver the paper cites in Section 2.2). Requires an L1 regularizer.
type CDInner struct {
	Lambda float64
}

// Name identifies the inner solver.
func (cd CDInner) Name() string { return "cd" }

// Solve runs iters full coordinate sweeps on q.
func (cd CDInner) Solve(q Quad, _ prox.Operator, z0 []float64, iters int, c *perf.Cost) []float64 {
	d := len(z0)
	z := mat.Clone(z0)
	// Maintain hz = H z incrementally: a coordinate change delta on
	// coordinate i adds delta * H[:,i].
	hz := make([]float64, d)
	q.H.MulVec(hz, z, c)
	for sweep := 0; sweep < iters; sweep++ {
		for i := 0; i < d; i++ {
			hii := q.H.At(i, i)
			if hii <= 0 {
				continue
			}
			// Partial residual: minimize over z_i with others fixed.
			// The 6 flops cover this closed-form update; the hii <= 0
			// fast path above skips the computation and charges nothing.
			rho := q.R[i] - (hz[i] - hii*z[i])
			zi := prox.SoftThreshold(rho, cd.Lambda) / hii
			c.AddFlops(6)
			delta := zi - z[i]
			if delta != 0 {
				z[i] = zi
				q.H.AddScaledCol(i, delta, hz, c)
			}
		}
	}
	return z
}

// CholInner solves the subproblem exactly with one packed Cholesky
// factorization. Valid when the composite term is smooth-quadratic —
// prox.Zero (plain Newton step) or prox.L2Squared with penalty Ridge,
// where the minimizer solves (H + Ridge I) z = R in closed form. The
// iters budget is ignored; if H + Ridge I is not positive definite the
// starting point is returned unchanged.
type CholInner struct {
	// Ridge is added to the diagonal before factoring (the L2Squared
	// penalty, or a small damping for plain Newton). Zero is allowed.
	Ridge float64
}

// Name identifies the inner solver.
func (ci CholInner) Name() string { return "chol" }

// Solve factors H (+ Ridge I) in packed form and back-substitutes.
func (ci CholInner) Solve(q Quad, _ prox.Operator, z0 []float64, _ int, c *perf.Cost) []float64 {
	d := q.H.Dim()
	a, ok := q.H.(*mat.SymPacked)
	if ok && ci.Ridge != 0 {
		a = a.Clone()
	} else if !ok {
		a = mat.NewSymPacked(d)
		for i := 0; i < d; i++ {
			tail := a.RowTail(i)
			for jj := range tail {
				tail[jj] = q.H.At(i, i+jj)
			}
		}
	}
	if ci.Ridge != 0 {
		for i := 0; i < d; i++ {
			a.Set(i, i, a.At(i, i)+ci.Ridge)
		}
		c.AddFlops(int64(d))
	}
	x, err := mat.SolveSPDPacked(a, q.R, c)
	if err != nil {
		return mat.Clone(z0)
	}
	return x
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
