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
// for the d x m data matrix X. scratch must have length m (reused
// across calls); pass nil to allocate internally.
func LeastSquares(x *sparse.CSC, y, w, scratch []float64, c *perf.Cost) float64 {
	m := x.Cols
	if scratch == nil {
		scratch = make([]float64, m)
	}
	x.MulVecT(scratch, w, c)
	var s float64
	for i, t := range scratch {
		r := t - y[i]
		s += r * r
	}
	c.AddFlops(int64(3 * m))
	return s / (2 * float64(m))
}

// Objective couples the least-squares loss with a proximal regularizer
// so that F(w) = f(w) + g(w) can be evaluated and tracked.
type Objective struct {
	X *sparse.CSC
	Y []float64
	G Operator

	scratch []float64
}

// NewObjective returns an objective for data (x, y) and regularizer g.
func NewObjective(x *sparse.CSC, y []float64, g Operator) *Objective {
	if x.Cols != len(y) {
		panic("prox: Objective sample count mismatch")
	}
	return &Objective{X: x, Y: y, G: g, scratch: make([]float64, x.Cols)}
}

// F returns the full objective F(w) = f(w) + g(w).
func (o *Objective) F(w []float64, c *perf.Cost) float64 {
	return LeastSquares(o.X, o.Y, w, o.scratch, c) + o.G.Value(w, c)
}

// Smooth returns only f(w).
func (o *Objective) Smooth(w []float64, c *perf.Cost) float64 {
	return LeastSquares(o.X, o.Y, w, o.scratch, c)
}

// Gradient writes the exact gradient (Eq. 4),
// grad f(w) = (1/m)(X X^T w - X y), into g without forming the Gram
// matrix.
func (o *Objective) Gradient(g, w []float64, c *perf.Cost) {
	m := float64(o.X.Cols)
	o.X.MulVecT(o.scratch, w, c)
	mat.Axpy(-1, o.Y, o.scratch, c)
	mat.Zero(g)
	o.X.MulVec(g, o.scratch, c)
	mat.Scal(1/m, g, c)
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
