// Package erm extends the Proximal Newton machinery from the paper's
// l1-least-squares focus to the general empirical risk minimization
// class of Eqs. 1-2:
//
//	min_w F(w) = (1/m) sum_i loss(x_i^T w, y_i) + g(w)
//
// with twice-differentiable per-sample losses (least squares, logistic
// regression). The Hessian is H(w) = (1/m) X D(w) X^T with
// D(w) = diag(loss”(x_i^T w, y_i)), approximated by uniform column
// subsampling exactly as in Algorithm 1 line 3.
//
// A note on scope (why the paper restricts to least squares): the
// iteration-overlapping trick of RC-SFISTA batches k Hessian instances
// into one allreduce, which requires the Hessian to be INDEPENDENT of
// the iterate — true for least squares (H = (1/mbar) X I I^T X^T is
// pure data) but false for logistic regression, where D(w) couples H
// to w. For general losses, only the classic Proximal Newton loop
// (one gradient allreduce + one Hessian allreduce per outer iteration)
// applies, which this package implements both sequentially and on the
// dist.Comm substrate.
package erm

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Loss is a twice continuously differentiable per-sample loss
// loss(z, y) of the margin/prediction z = x^T w and the label y.
type Loss interface {
	// Value returns loss(z, y).
	Value(z, y float64) float64
	// Deriv returns d/dz loss(z, y).
	Deriv(z, y float64) float64
	// Second returns d^2/dz^2 loss(z, y); must be non-negative
	// (convexity) and bounded (smoothness).
	Second(z, y float64) float64
	// Name identifies the loss.
	Name() string
}

// Squared is the least squares loss (1/2)(z - y)^2; with it the
// package reproduces the paper's objective exactly.
type Squared struct{}

// Value returns (1/2)(z-y)^2.
func (Squared) Value(z, y float64) float64 { d := z - y; return 0.5 * d * d }

// Deriv returns z - y.
func (Squared) Deriv(z, y float64) float64 { return z - y }

// Second returns 1.
func (Squared) Second(z, y float64) float64 { return 1 }

// Name returns "squared".
func (Squared) Name() string { return "squared" }

// Logistic is the binary logistic loss log(1 + exp(-y z)) for labels
// y in {-1, +1}.
type Logistic struct{}

// Value returns log(1+exp(-yz)), computed stably.
func (Logistic) Value(z, y float64) float64 {
	t := -y * z
	if t > 30 {
		return t
	}
	return math.Log1p(math.Exp(t))
}

// Deriv returns -y * sigmoid(-y z).
func (Logistic) Deriv(z, y float64) float64 {
	return -y * sigmoid(-y*z)
}

// Second returns sigmoid(yz) * sigmoid(-yz) in (0, 1/4].
func (Logistic) Second(z, y float64) float64 {
	s := sigmoid(y * z)
	return s * (1 - s)
}

// SignLabels returns a copy of y mapped onto the {-1, +1} labels
// Logistic expects: +1 where y >= 0, -1 elsewhere. The input — often a
// shared or cached dataset — is left untouched.
func SignLabels(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Name returns "logistic".
func (Logistic) Name() string { return "logistic" }

func sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// Objective evaluates the smooth ERM term f(w) = (1/m) sum loss(x_i^T w, y_i)
// for a d x m data matrix (columns are samples, as everywhere in this
// repository).
type Objective struct {
	X    *sparse.CSC
	Y    []float64
	Loss Loss

	margins []float64 // scratch, length m
}

// NewObjective builds an ERM objective.
func NewObjective(x *sparse.CSC, y []float64, loss Loss) *Objective {
	if x.Cols != len(y) {
		panic("erm: sample count mismatch")
	}
	return &Objective{X: x, Y: y, Loss: loss, margins: make([]float64, x.Cols)}
}

// Value returns f(w).
func (o *Objective) Value(w []float64, c *perf.Cost) float64 {
	o.X.MulVecT(o.margins, w, c)
	var s float64
	for i, z := range o.margins {
		s += o.Loss.Value(z, o.Y[i])
	}
	c.AddFlops(int64(3 * len(o.margins)))
	return s / float64(o.X.Cols)
}

// Gradient writes grad f(w) = (1/m) X loss'(X^T w, y) into g.
func (o *Objective) Gradient(g, w []float64, c *perf.Cost) {
	o.X.MulVecT(o.margins, w, c)
	for i, z := range o.margins {
		o.margins[i] = o.Loss.Deriv(z, o.Y[i])
	}
	c.AddFlops(int64(2 * len(o.margins)))
	mat.Zero(g)
	o.X.MulVec(g, o.margins, c)
	mat.Scal(1/float64(o.X.Cols), g, c)
}

// SampledHessianPacked accumulates H += (1/|cols|) sum_{j in cols}
// Second(x_j^T w, y_j) x_j x_j^T, the Algorithm 1 line 3 approximation
// for the general loss, into packed symmetric storage; h is zeroed by
// the caller if a fresh Hessian is wanted. Only the upper triangle of
// each curvature-weighted outer product x_j x_j^T is accumulated,
// costing nz(nz+1) + 2nz + 4 flops per sampled column instead of the
// full-storage 2nz^2 + 2nz + 4; a column with zero curvature adds and
// bills nothing. A sparse block sends each column through the sparse
// Gram kernel, sparse.AddOuterPacked, with the curvature as the weight;
// a block that stores every entry takes the dense-panel form instead.
// Both leave the same bits and the same bill.
func (o *Objective) SampledHessianPacked(h *mat.SymPacked, w []float64, cols []int, c *perf.Cost) {
	if h.N != o.X.Rows {
		panic("erm: SampledHessianPacked dimension mismatch")
	}
	if o.X.Full() {
		o.sampledHessianPanels(h, w, cols, c)
		return
	}
	scale := 1 / float64(len(cols))
	var flops int64
	for _, j := range cols {
		rows, vals := o.X.Col(j)
		if curv := o.curvature(j, w, scale); curv != 0 {
			sparse.AddOuterPacked(h, rows, vals, curv)
			flops += int64(len(rows)*(len(rows)+1) + 2*len(rows) + 4)
		}
	}
	c.AddFlops(flops)
}

// curvature returns scale * Second(x_j^T w, y_j), the weight sample j
// carries into the sampled Hessian.
func (o *Objective) curvature(j int, w []float64, scale float64) float64 {
	rows, vals := o.X.Col(j)
	var z float64
	for k, r := range rows {
		z += vals[k] * w[r]
	}
	return o.Loss.Second(z, o.Y[j]) * scale
}

// sampledHessianPanels is SampledHessianPacked for a block that stores
// every entry: the columns with non-zero curvature go, a panel at a
// time and in cols order, through the dense-panel kernel with the
// curvature as the weight. Same products in the same order as the
// column sweep, so the same bits, and the same flops billed.
func (o *Objective) sampledHessianPanels(h *mat.SymPacked, w []float64, cols []int, c *perf.Cost) {
	scale := 1 / float64(len(cols))
	var (
		idx  [sparse.PanelCols]int
		curv [sparse.PanelCols]float64
		n    int
	)
	flush := func() {
		sparse.PanelGramPacked(o.X, h, idx[:n], curv[:n], c)
		c.AddFlops(int64(n) * int64(2*o.X.Rows+4))
		n = 0
	}
	for _, j := range cols {
		cv := o.curvature(j, w, scale)
		if cv == 0 {
			continue
		}
		idx[n], curv[n] = j, cv
		if n++; n == len(idx) {
			flush()
		}
	}
	flush()
}

// Accuracy returns the fraction of samples whose sign(x_i^T w) matches
// sign(y_i) — the classification metric for logistic problems.
func (o *Objective) Accuracy(w []float64) float64 {
	o.X.MulVecT(o.margins, w, nil)
	hits := 0
	for i, z := range o.margins {
		if (z >= 0) == (o.Y[i] >= 0) {
			hits++
		}
	}
	return float64(hits) / float64(len(o.margins))
}

// Huber is the robust regression loss: quadratic within Delta of the
// target, linear outside. Convex with curvature bounded by 1; the
// second derivative is piecewise constant (twice differentiable almost
// everywhere, which suffices for the sampled-Hessian Proximal Newton
// in practice). Delta <= 0 is treated as 1.
type Huber struct {
	Delta float64
}

func (h Huber) delta() float64 {
	if h.Delta <= 0 {
		return 1
	}
	return h.Delta
}

// Value returns the Huber loss of residual z - y.
func (h Huber) Value(z, y float64) float64 {
	d := h.delta()
	r := z - y
	if r < 0 {
		r = -r
	}
	if r <= d {
		return 0.5 * r * r
	}
	return d*r - 0.5*d*d
}

// Deriv returns the clipped residual.
func (h Huber) Deriv(z, y float64) float64 {
	d := h.delta()
	r := z - y
	if r > d {
		return d
	}
	if r < -d {
		return -d
	}
	return r
}

// Second returns 1 inside the quadratic region and 0 outside.
func (h Huber) Second(z, y float64) float64 {
	r := z - y
	if r < 0 {
		r = -r
	}
	if r <= h.delta() {
		return 1
	}
	return 0
}

// Name returns "huber".
func (Huber) Name() string { return "huber" }
