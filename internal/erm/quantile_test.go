package erm

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

func TestQuantileLossShape(t *testing.T) {
	q := Quantile{Tau: 0.8, Eps: 0.1}
	// Asymptotes: slope 1-tau for large positive residuals, -tau for
	// large negative ones (within eps*log2 of the exact pinball).
	if v, want := q.Value(100, 0), 0.2*100.0; math.Abs(v-want) > 0.1 {
		t.Fatalf("positive asymptote %g, want ~%g", v, want)
	}
	if v, want := q.Value(-100, 0), 0.8*100.0; math.Abs(v-want) > 0.1 {
		t.Fatalf("negative asymptote %g, want ~%g", v, want)
	}
	// Derivative lands in the pinball subdifferential [-tau, 1-tau]
	// (the open interval mathematically; sigmoid saturates in floats).
	for _, z := range []float64{-50, -1, 0, 1, 50} {
		d := q.Deriv(z, 0)
		if d < -0.8 || d > 0.2 {
			t.Fatalf("Deriv(%g) = %g outside [-0.8, 0.2]", z, d)
		}
	}
	// Convexity: Second non-negative and within the curvature bound
	// 1/(4*eps), the peak of the smoothed pinball's second derivative.
	bound := 1 / (4 * q.Eps)
	for _, z := range []float64{-5, -0.1, 0, 0.1, 5} {
		s := q.Second(z, 0)
		if s < 0 || s > bound {
			t.Fatalf("Second(%g) = %g outside [0, %g]", z, s, bound)
		}
	}
	// Defaults: tau 0.5, eps 0.5.
	def := Quantile{}
	if d0 := def.Deriv(0, 0); math.Abs(d0) > 1e-15 {
		t.Fatalf("default median slope at 0 = %g, want 0", d0)
	}
	if def.Name() != "quantile" {
		t.Fatal("wrong name")
	}
}

func TestQuantileFiniteDiff(t *testing.T) {
	q := Quantile{Tau: 0.3, Eps: 0.4}
	for _, z := range []float64{-8, -1, -0.2, 0, 0.3, 1, 6} {
		const step = 1e-6
		fd1 := (q.Value(z+step, 0) - q.Value(z-step, 0)) / (2 * step)
		if math.Abs(fd1-q.Deriv(z, 0)) > 1e-6 {
			t.Fatalf("Deriv(%g) = %g, fd %g", z, q.Deriv(z, 0), fd1)
		}
		fd2 := (q.Deriv(z+step, 0) - q.Deriv(z-step, 0)) / (2 * step)
		if math.Abs(fd2-q.Second(z, 0)) > 1e-5 {
			t.Fatalf("Second(%g) = %g, fd %g", z, q.Second(z, 0), fd2)
		}
	}
}

// TestSampledHessianFiniteDiffNewLosses verifies the packed sampled
// Hessian of the new losses against gradient finite differences on the
// full sample set: H e_j must match (grad(w + h e_j) - grad(w))/h. The
// Huber leg keeps residuals inside the quadratic region (large Delta)
// so its piecewise-constant curvature cannot straddle a kink.
func TestSampledHessianFiniteDiffNewLosses(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 16, M: 400, Density: 0.6, TrueNnz: 4, NoiseStd: 0.1, Seed: 21})
	cols := make([]int, p.X.Cols)
	for i := range cols {
		cols[i] = i
	}
	for _, loss := range []Loss{Huber{Delta: 25}, Quantile{Tau: 0.7, Eps: 0.6}} {
		o := NewObjective(p.X, p.Y, loss)
		g := rng.New(22)
		w := make([]float64, 16)
		for i := range w {
			w[i] = 0.2 * g.NormFloat64()
		}
		h := mat.NewSymPacked(16)
		o.SampledHessianPacked(h, w, cols, nil)
		const step = 1e-6
		grad0 := make([]float64, 16)
		grad1 := make([]float64, 16)
		o.Gradient(grad0, w, nil)
		for j := 0; j < 16; j += 4 {
			wp := append([]float64(nil), w...)
			wp[j] += step
			o.Gradient(grad1, wp, nil)
			for i := 0; i < 16; i += 3 {
				fd := (grad1[i] - grad0[i]) / step
				if math.Abs(fd-h.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
					t.Fatalf("%s: H[%d][%d] = %g, fd %g", loss.Name(), i, j, h.At(i, j), fd)
				}
			}
		}
	}
}

// TestProxNewtonQuantileLevel fits an intercept-only model, where the
// tau-quantile loss has a known minimizer: the (smoothed) tau-quantile
// of the labels. With tau = 0.85 about 85% of labels must land below
// the fitted constant.
func TestProxNewtonQuantileLevel(t *testing.T) {
	const m = 800
	x := &sparse.CSC{Rows: 1, Cols: m, ColPtr: make([]int, m+1), RowIdx: make([]int, m), Val: make([]float64, m)}
	y := make([]float64, m)
	g := rng.New(31)
	for i := 0; i < m; i++ {
		x.ColPtr[i+1] = i + 1
		x.Val[i] = 1
		y[i] = g.NormFloat64()
	}
	res, err := ProxNewton(x, y, Options{
		Loss: Quantile{Tau: 0.85, Eps: 0.02}, Reg: prox.Zero{},
		OuterIter: 60, InnerIter: 40, B: 1, LineSearch: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	for _, yi := range y {
		if yi <= res.W[0] {
			below++
		}
	}
	frac := float64(below) / m
	if math.Abs(frac-0.85) > 0.05 {
		t.Fatalf("tau=0.85 intercept fit covers %.3f of labels, want ~0.85 (w0 = %g)", frac, res.W[0])
	}
	// And the deeper smoothing check: the fitted constant approximates
	// the standard normal 0.85-quantile (~1.036).
	if math.Abs(res.W[0]-1.036) > 0.15 {
		t.Fatalf("fitted quantile %g far from N(0,1) 0.85-quantile", res.W[0])
	}
}

// TestProxNewtonQuantileConverges: the smoothed quantile PN run makes
// progress on a sparse regression problem under an l1 penalty.
func TestProxNewtonQuantileConverges(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 10, M: 500, Density: 1, NoiseStd: 0.3, Seed: 31})
	res, err := ProxNewton(p.X, p.Y, Options{
		Loss: Quantile{Tau: 0.5, Eps: 0.05}, Lambda: 0.001,
		OuterIter: 80, InnerIter: 40, B: 1, LineSearch: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObjective(p.X, p.Y, Quantile{Tau: 0.5, Eps: 0.05})
	zero := make([]float64, 10)
	if res.FinalObj >= o.Value(zero, nil) {
		t.Fatalf("quantile PN did not improve on w = 0: F = %g", res.FinalObj)
	}
}
