package prox

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// LeastSquares evaluates the smooth term of Eq. 3,
//
//	f(w) = (1/2m) sum_i (x_i^T w - y_i)^2 = (1/2m) ||X^T w - y||^2
//
// for the d x m data matrix X, in one sweep over the columns
// (sparse.CSC.ResidualLoss): 2·nnz + 3m flops, no scratch.
func LeastSquares(x *sparse.CSC, y, w []float64, c *perf.Cost) float64 {
	return x.ResidualLoss(w, y, 0, x.Cols, c) / (2 * float64(x.Cols))
}

// Objective couples the least-squares loss with a proximal regularizer
// so that F(w) = f(w) + g(w) can be evaluated and tracked. f and ∇f each
// take one sweep over the columns and keep no state, so concurrent
// callers may share an Objective.
type Objective struct {
	X *sparse.CSC
	Y []float64
	G Operator
}

// NewObjective returns an objective for data (x, y) and regularizer g.
func NewObjective(x *sparse.CSC, y []float64, g Operator) *Objective {
	if x.Cols != len(y) {
		panic("prox: Objective sample count mismatch")
	}
	return &Objective{X: x, Y: y, G: g}
}

// F returns the full objective F(w) = f(w) + g(w).
func (o *Objective) F(w []float64, c *perf.Cost) float64 {
	return LeastSquares(o.X, o.Y, w, c) + o.G.Value(w, c)
}

// Smooth returns only f(w).
func (o *Objective) Smooth(w []float64, c *perf.Cost) float64 {
	return LeastSquares(o.X, o.Y, w, c)
}

// Gradient writes the exact gradient (Eq. 4),
// grad f(w) = (1/m)(X X^T w - X y), into g without forming the Gram
// matrix: one sweep (sparse.CSC.ResidualGrad), then the 1/m scale.
func (o *Objective) Gradient(g, w []float64, c *perf.Cost) {
	mat.Zero(g)
	o.X.ResidualGrad(g, w, o.Y, 0, o.X.Cols, c)
	mat.Scal(1/float64(o.X.Cols), g, c)
}

// EstimateLipschitz estimates L = lambda_max((1/m) X X^T), the Lipschitz
// constant of grad f, by iters rounds of power iteration on the implicit
// Gram operator. v0 seeds the iteration; pass nil for a deterministic
// default.
func EstimateLipschitz(x *sparse.CSC, iters int, v0 []float64, c *perf.Cost) float64 {
	d := x.Rows
	m := float64(x.Cols)
	v := make([]float64, d)
	if v0 != nil {
		copy(v, v0)
	} else {
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(d))
		}
	}
	scratch := make([]float64, x.Cols)
	gv := make([]float64, d)
	var lam float64
	for it := 0; it < iters; it++ {
		x.MulVecT(scratch, v, c)
		mat.Zero(gv)
		x.MulVec(gv, scratch, c)
		mat.Scal(1/m, gv, c)
		lam = mat.Nrm2(gv, c)
		if lam == 0 {
			return 0
		}
		for i := range v {
			v[i] = gv[i] / lam
		}
		c.AddFlops(int64(d))
	}
	return lam
}
