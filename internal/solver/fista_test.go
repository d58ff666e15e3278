package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

func TestFISTAReachesReference(t *testing.T) {
	p, gamma, fstar := testProblem(t, 24, 400, 0.5)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.FStar = fstar
	o.MaxIter = 3000
	o.Tol = 1e-6
	o.EvalEvery = 20
	res, err := FISTA(p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("FISTA stalled at relerr %g", res.FinalRelErr)
	}
}

func TestFISTABeatsISTA(t *testing.T) {
	// Acceleration must reach the tolerance in fewer iterations. Use a
	// calibrated ill-conditioned instance: on an easy problem both
	// methods finish in a handful of steps and the comparison is void.
	p, err := data.LoadWith("covtype", 2000, 54, 5)
	if err != nil {
		t.Fatal(err)
	}
	gamma := GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 5))
	_, fstar := Reference(p.X, p.Y, p.Lambda, 20000)
	run := func(f func(*sparse.CSC, []float64, Options) (*Result, error)) int {
		o := Defaults()
		o.Lambda = p.Lambda
		o.Gamma = gamma
		o.FStar = fstar
		o.MaxIter = 20000
		o.Tol = 1e-4
		o.EvalEvery = 5
		res, err := f(p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("did not converge: %g", res.FinalRelErr)
		}
		return res.Iters
	}
	fi := run(FISTA)
	is := run(ISTA)
	if fi >= is {
		t.Fatalf("FISTA (%d iters) not faster than ISTA (%d iters)", fi, is)
	}
}

func TestFISTASolutionKKT(t *testing.T) {
	// The converged FISTA solution must satisfy the LASSO optimality
	// conditions: |grad_i| <= lambda on the zero set, grad_i =
	// -lambda*sign(w_i) on the support (up to tolerance).
	p, gamma, _ := testProblem(t, 16, 300, 0.8)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.MaxIter = 20000
	o.EvalEvery = 1000
	res, err := FISTA(p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	obj := prox.NewObjective(p.X, p.Y, prox.L1{Lambda: p.Lambda})
	grad := make([]float64, 16)
	obj.Gradient(grad, res.W, nil)
	const tol = 1e-4
	for i, wi := range res.W {
		if wi == 0 {
			if math.Abs(grad[i]) > p.Lambda+tol {
				t.Fatalf("KKT zero-set violated at %d: |grad| = %g > lambda = %g",
					i, math.Abs(grad[i]), p.Lambda)
			}
		} else if math.Abs(grad[i]+p.Lambda*sign(wi)) > tol {
			t.Fatalf("KKT support violated at %d: grad = %g, w = %g", i, grad[i], wi)
		}
	}
}

func TestFISTAObjectiveTrendsDown(t *testing.T) {
	// FISTA is not strictly monotone, but the recorded objective must
	// end far below where it started.
	p, gamma, _ := testProblem(t, 20, 300, 0.5)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.MaxIter = 500
	o.EvalEvery = 10
	res, err := FISTA(p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0].Obj
	last := res.Trace.Points[len(res.Trace.Points)-1].Obj
	if last > first/2 {
		t.Fatalf("objective barely moved: %g -> %g", first, last)
	}
}

func TestReferenceZeroMatrix(t *testing.T) {
	x := &sparse.CSC{Rows: 4, Cols: 6, ColPtr: make([]int, 7)}
	y := []float64{1, 2, 3, 4, 5, 6}
	w, f := Reference(x, y, 0.1, 100)
	for _, v := range w {
		if v != 0 {
			t.Fatal("zero-matrix reference should be w = 0")
		}
	}
	// F(0) = (1/2m)||y||^2.
	want := (1.0 + 4 + 9 + 16 + 25 + 36) / 12
	if math.Abs(f-want) > 1e-12 {
		t.Fatalf("F(0) = %g, want %g", f, want)
	}
}

func TestReferenceIsNearOptimal(t *testing.T) {
	// Running the reference twice as long must not improve it much.
	p := data.Generate(data.GenSpec{D: 10, M: 150, Density: 1, Lambda: 0.05, Seed: 21})
	_, f1 := Reference(p.X, p.Y, p.Lambda, 4000)
	_, f2 := Reference(p.X, p.Y, p.Lambda, 8000)
	if (f1-f2)/math.Max(f2, 1e-300) > 1e-6 {
		t.Fatalf("reference not converged: %g vs %g", f1, f2)
	}
}

func TestFISTARejectsInvalidOptions(t *testing.T) {
	p, _, _ := testProblem(t, 4, 10, 1.0)
	o := Defaults() // Gamma unset
	if _, err := FISTA(p.X, p.Y, o); err == nil {
		t.Fatal("missing Gamma accepted")
	}
}

func TestSampledLipschitzInflation(t *testing.T) {
	// The subsampled estimate must be at least the full-data estimate
	// and grow as the sampling rate shrinks (dense iid data).
	p := data.Generate(data.GenSpec{D: 30, M: 600, Density: 1, Seed: 22})
	full := SampledLipschitz(p.X, p.Y, 1, 1, 9)
	l50 := SampledLipschitz(p.X, p.Y, 0.5, 6, 9)
	l10 := SampledLipschitz(p.X, p.Y, 0.1, 6, 9)
	if l50 < full*0.95 {
		t.Fatalf("b=0.5 estimate %g below full %g", l50, full)
	}
	if l10 <= l50 {
		t.Fatalf("b=0.1 estimate %g not above b=0.5 %g", l10, l50)
	}
}

func TestSampledLipschitzFullBatchMatchesExact(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 12, M: 200, Density: 0.7, Seed: 23})
	exact := prox.EstimateLipschitz(p.X, 100, nil, nil)
	got := SampledLipschitz(p.X, p.Y, 1, 1, 1)
	// b = 1 path applies the 1.05 safety margin only; the two power
	// iterations start from different vectors, so allow 1% slack.
	if math.Abs(got-1.05*exact) > 1e-2*exact {
		t.Fatalf("b=1 sampled L = %g, want ~1.05*%g", got, exact)
	}
}

func TestFISTARateOrder(t *testing.T) {
	// FISTA's objective gap decays as O(1/N^2): doubling the iteration
	// count should cut the gap by roughly 4x (allowing slack for
	// constants and the problem leaving the sublinear regime). Use a
	// mildly conditioned dense problem with tiny lambda so the gap
	// stays in the polynomial phase over the measured window.
	p := data.Generate(data.GenSpec{
		D: 40, M: 400, Density: 1, RowScaleDecay: 0.02, NoiseStd: 0.3,
		Lambda: 1e-4, Seed: 77,
	})
	_, fstar := Reference(p.X, p.Y, p.Lambda, 60000)
	gamma := GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 77))

	gapAt := func(n int) float64 {
		o := Defaults()
		o.Lambda = p.Lambda
		o.Gamma = gamma
		o.MaxIter = n
		o.EvalEvery = n
		res, err := FISTA(p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalObj - fstar
	}
	g40 := gapAt(40)
	g80 := gapAt(80)
	g160 := gapAt(160)
	r1 := g40 / g80
	r2 := g80 / g160
	// O(1/N^2) predicts ratio 4; accept [2, 20] (super-quadratic is
	// fine — it means local linear convergence kicked in).
	if r1 < 2 || r2 < 2 {
		t.Fatalf("gap ratios %.2f, %.2f below the O(1/N^2) prediction", r1, r2)
	}
}

func TestISTARateSlowerThanFISTA(t *testing.T) {
	// ISTA is O(1/N): its doubling ratio should sit well below
	// FISTA's at the same horizon.
	p := data.Generate(data.GenSpec{
		D: 40, M: 400, Density: 1, RowScaleDecay: 0.02, NoiseStd: 0.3,
		Lambda: 1e-4, Seed: 77,
	})
	_, fstar := Reference(p.X, p.Y, p.Lambda, 60000)
	gamma := GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 77))
	gap := func(f func(*sparse.CSC, []float64, Options) (*Result, error), n int) float64 {
		o := Defaults()
		o.Lambda = p.Lambda
		o.Gamma = gamma
		o.MaxIter = n
		o.EvalEvery = n
		res, err := f(p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalObj - fstar
	}
	istaRatio := gap(ISTA, 40) / gap(ISTA, 80)
	fistaRatio := gap(FISTA, 40) / gap(FISTA, 80)
	if istaRatio >= fistaRatio {
		t.Fatalf("ISTA ratio %.2f not below FISTA ratio %.2f", istaRatio, fistaRatio)
	}
}
