// Package mat implements the dense vector and matrix kernels used by
// the solvers: BLAS-1 vector operations, BLAS-2/3 matrix products and a
// small set of symmetric update kernels. Every kernel optionally charges
// its exact floating point operation count into a *perf.Cost, so the
// Table 1 verification measures what was actually executed rather than
// an after-the-fact estimate. All kernels accept a nil cost.
package mat

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Dot returns the inner product of x and y. Panics on length mismatch.
func Dot(x, y []float64, c *perf.Cost) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	c.AddFlops(int64(2 * len(x)))
	return s
}

// Axpy computes y += a*x in place. Panics on length mismatch.
func Axpy(a float64, x, y []float64, c *perf.Cost) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	if a == 0 {
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
	c.AddFlops(int64(2 * len(x)))
}

// Scal scales x by a in place.
func Scal(a float64, x []float64, c *perf.Cost) {
	for i := range x {
		x[i] *= a
	}
	c.AddFlops(int64(len(x)))
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64, c *perf.Cost) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	c.AddFlops(int64(2*len(x) + 1))
	return math.Sqrt(s)
}

// Nrm1 returns the l1 norm of x.
func Nrm1(x []float64, c *perf.Cost) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	c.AddFlops(int64(2 * len(x)))
	return s
}

// NrmInf returns the maximum absolute entry of x (0 for empty x).
func NrmInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Zero clears x.
func Zero(x []float64) { Fill(x, 0) }

// Sub computes dst = x - y. Panics on length mismatch.
func Sub(dst, x, y []float64, c *perf.Cost) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
	c.AddFlops(int64(len(dst)))
}

// AddScaled computes dst = x + a*y. dst may alias x or y.
func AddScaled(dst, x []float64, a float64, y []float64, c *perf.Cost) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: AddScaled length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + a*y[i]
	}
	c.AddFlops(int64(2 * len(dst)))
}

// CountNonzeros returns the number of entries of x with magnitude above
// eps.
func CountNonzeros(x []float64, eps float64) int {
	n := 0
	for _, v := range x {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
