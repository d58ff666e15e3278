package erm

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
)

func TestSquaredLossMatchesLeastSquares(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 8, M: 60, Density: 0.7, Seed: 1})
	o := NewObjective(p.X, p.Y, Squared{})
	lso := prox.NewObjective(p.X, p.Y, prox.Zero{})
	g := rng.New(2)
	w := make([]float64, 8)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	if a, b := o.Value(w, nil), lso.Smooth(w, nil); math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
		t.Fatalf("squared ERM value %g != least squares %g", a, b)
	}
	ga := make([]float64, 8)
	gb := make([]float64, 8)
	o.Gradient(ga, w, nil)
	lso.Gradient(gb, w, nil)
	for i := range ga {
		if math.Abs(ga[i]-gb[i]) > 1e-12*(1+math.Abs(gb[i])) {
			t.Fatalf("gradient mismatch at %d: %g vs %g", i, ga[i], gb[i])
		}
	}
}

func TestLogisticLossProperties(t *testing.T) {
	l := Logistic{}
	// Value positive, decreasing in margin for y=+1; derivative signs.
	f := func(z0 float64) bool {
		z := math.Mod(z0, 50)
		if math.IsNaN(z) {
			return true
		}
		v := l.Value(z, 1)
		if v < 0 {
			return false
		}
		d := l.Deriv(z, 1)
		if d > 0 { // loss decreases as margin grows
			return false
		}
		s := l.Second(z, 1)
		return s >= 0 && s <= 0.25+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Stable at extreme arguments.
	if v := l.Value(-1e6, 1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("unstable at extreme margin: %g", v)
	}
	if v := l.Value(1e6, 1); v != 0 {
		t.Fatalf("loss at huge positive margin: %g", v)
	}
}

func TestLogisticGradAndSecondAgainstFiniteDiff(t *testing.T) {
	l := Logistic{}
	for _, z := range []float64{-3, -0.5, 0, 0.7, 4} {
		for _, y := range []float64{-1, 1} {
			const h = 1e-6
			fd1 := (l.Value(z+h, y) - l.Value(z-h, y)) / (2 * h)
			if math.Abs(fd1-l.Deriv(z, y)) > 1e-6 {
				t.Fatalf("Deriv(%g,%g) = %g, fd %g", z, y, l.Deriv(z, y), fd1)
			}
			fd2 := (l.Deriv(z+h, y) - l.Deriv(z-h, y)) / (2 * h)
			if math.Abs(fd2-l.Second(z, y)) > 1e-5 {
				t.Fatalf("Second(%g,%g) = %g, fd %g", z, y, l.Second(z, y), fd2)
			}
		}
	}
}

func logitProblem(seed uint64) *data.Problem {
	return data.GenerateClassification(data.GenSpec{
		D: 20, M: 600, Density: 0.5, TrueNnz: 5, NoiseStd: 0.3, Seed: seed,
	}, 0.02)
}

func TestLogisticObjectiveGradientFiniteDiff(t *testing.T) {
	p := logitProblem(3)
	o := NewObjective(p.X, p.Y, Logistic{})
	g := rng.New(4)
	w := make([]float64, 20)
	for i := range w {
		w[i] = 0.3 * g.NormFloat64()
	}
	grad := make([]float64, 20)
	o.Gradient(grad, w, nil)
	const h = 1e-6
	for i := 0; i < 20; i += 3 {
		wp := append([]float64(nil), w...)
		wm := append([]float64(nil), w...)
		wp[i] += h
		wm[i] -= h
		fd := (o.Value(wp, nil) - o.Value(wm, nil)) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %g, fd %g", i, grad[i], fd)
		}
	}
}

func TestSampledHessianPSDAndFiniteDiff(t *testing.T) {
	p := logitProblem(5)
	o := NewObjective(p.X, p.Y, Logistic{})
	w := make([]float64, 20)
	for i := range w {
		w[i] = 0.1 * float64(i%3)
	}
	cols := make([]int, p.X.Cols)
	for i := range cols {
		cols[i] = i
	}
	h := mat.NewSymPacked(20)
	o.SampledHessianPacked(h, w, cols, nil)

	// Symmetric PSD.
	g := rng.New(6)
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, 20)
		for i := range x {
			x[i] = g.NormFloat64()
		}
		hx := make([]float64, 20)
		h.MulVec(hx, x, nil)
		if mat.Dot(x, hx, nil) < -1e-10 {
			t.Fatal("full-sample Hessian not PSD")
		}
	}
	// H * e_i approximates the gradient finite difference.
	const step = 1e-6
	grad0 := make([]float64, 20)
	grad1 := make([]float64, 20)
	o.Gradient(grad0, w, nil)
	wp := append([]float64(nil), w...)
	wp[4] += step
	o.Gradient(grad1, wp, nil)
	for i := 0; i < 20; i += 5 {
		fd := (grad1[i] - grad0[i]) / step
		if math.Abs(fd-h.At(i, 4)) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("H[%d][4] = %g, fd %g", i, h.At(i, 4), fd)
		}
	}
}

func TestProxNewtonLogisticConverges(t *testing.T) {
	p := logitProblem(7)
	res, err := ProxNewton(p.X, p.Y, Options{
		Loss: Logistic{}, Lambda: 0.005,
		OuterIter: 60, InnerIter: 30, B: 1, LineSearch: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireMonotone(t, "logistic", res)
	o := NewObjective(p.X, p.Y, Logistic{})
	// Good classification accuracy on the training data.
	if acc := o.Accuracy(res.W); acc < 0.9 {
		t.Fatalf("accuracy %g < 0.9", acc)
	}
	// KKT check at the returned point.
	grad := make([]float64, len(res.W))
	o.Gradient(grad, res.W, nil)
	for i, wi := range res.W {
		if wi == 0 {
			if math.Abs(grad[i]) > 0.005+1e-3 {
				t.Fatalf("KKT zero-set violated at %d: %g", i, grad[i])
			}
		} else if math.Abs(grad[i]+0.005*math.Copysign(1, wi)) > 1e-3 {
			t.Fatalf("KKT support violated at %d: grad %g w %g", i, grad[i], wi)
		}
	}
}

func TestProxNewtonLogisticSelectsSparseModel(t *testing.T) {
	p := logitProblem(8)
	res, err := ProxNewton(p.X, p.Y, Options{
		Loss: Logistic{}, Lambda: 0.02,
		OuterIter: 40, InnerIter: 30, B: 1, LineSearch: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	nnz := mat.CountNonzeros(res.W, 0)
	if nnz == 0 || nnz > 15 {
		t.Fatalf("solution has %d/20 non-zeros; expected sparse but non-trivial", nnz)
	}
}

func TestDistProxNewtonMatchesSequential(t *testing.T) {
	p := logitProblem(9)
	opts := Options{
		Loss: Logistic{}, Lambda: 0.01,
		OuterIter: 15, InnerIter: 20, B: 0.5, Seed: 9,
	}
	seq, err := ProxNewton(p.X, p.Y, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 5} {
		w := dist.NewWorld(procs, perf.Comet())
		results := make([]*solver.Result, procs)
		err := w.Run(func(c dist.Comm) error {
			local := Partition(p.X, p.Y, c.Size(), c.Rank())
			r, err := DistProxNewton(c, local, opts)
			results[c.Rank()] = r
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var maxDiff float64
		for i := range seq.W {
			maxDiff = math.Max(maxDiff, math.Abs(seq.W[i]-results[0].W[i]))
		}
		if maxDiff > 1e-9 {
			t.Fatalf("P=%d diverged from sequential: max |dw| = %g", procs, maxDiff)
		}
	}
}

func TestDistProxNewtonChargesHessianBandwidth(t *testing.T) {
	p := logitProblem(10)
	const procs, outers = 4, 5
	w := dist.NewWorld(procs, perf.Comet())
	err := w.Run(func(c dist.Comm) error {
		local := Partition(p.X, p.Y, c.Size(), c.Rank())
		opts := Options{Loss: Logistic{}, Lambda: 0.01, OuterIter: outers, InnerIter: 5, B: 0.5, Seed: 10}
		_, err := DistProxNewton(c, local, opts)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d := p.X.Rows
	lg := perf.Log2Ceil(procs)
	// Per outer: grad (d words) + packed Hessian (d(d+1)/2 words), each
	// over lg levels.
	wantWords := int64(outers * lg * (d + d*(d+1)/2))
	got := w.RankCost(0).Words
	if got != wantWords {
		t.Fatalf("words = %d, want %d", got, wantWords)
	}
}

// TestSquaredERMPNMatchesSolverPN: with the squared loss the
// general solver is Algorithm 1 on the LASSO. It must reach the
// least-squares reference optimum from the exact Hessian and from a
// 30 % Hessian sample, under the line search, whose objective trace
// never rises.
func TestSquaredERMPNMatchesSolverPN(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec data.GenSpec
		opts Options
	}{
		{"b=1", data.GenSpec{D: 12, M: 200, Density: 0.8, Lambda: 0.05, Seed: 11},
			Options{OuterIter: 40, InnerIter: 40, B: 1, Tol: 1e-5, Seed: 11}},
		{"b=0.3", data.GenSpec{D: 16, M: 400, Density: 0.6, Lambda: 0.1, Seed: 7, NoiseStd: 0.01},
			Options{OuterIter: 60, InnerIter: 15, B: 0.3, Tol: 1e-3, Seed: 2}},
	} {
		prob := data.Generate(tc.spec)
		_, fstar := solver.Reference(prob.X, prob.Y, prob.Lambda, 8000)
		o := tc.opts
		o.Lambda, o.LineSearch, o.FStar = prob.Lambda, true, fstar
		res, err := ProxNewton(prob.X, prob.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: squared-loss PN stalled at relerr %g", tc.name, res.FinalRelErr)
		}
		requireMonotone(t, tc.name, res)
	}
}

// requireMonotone fails unless res's objective trace never rises, as a
// line-searched solve guarantees: it applies only steps that do not
// increase F, and keeps w when none does.
func requireMonotone(t *testing.T, name string, res *solver.Result) {
	t.Helper()
	pts := res.Trace.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Obj > pts[i-1].Obj {
			t.Fatalf("%s: objective rose at outer %d: %g -> %g", name, pts[i].Iter, pts[i-1].Obj, pts[i].Obj)
		}
	}
}

// TestFailedLineSearchKeepsW: when no tested damping decreases F — here
// the payload's gradient half is negated, so dw points uphill — the
// round keeps w and the cached F(w), and the solve goes on to draw a
// fresh Hessian instead of stopping on the step norm.
func TestFailedLineSearchKeepsW(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 8, M: 120, Density: 0.8, Lambda: 0.01, Seed: 21})
	e, err := newPNEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0),
		Options{Lambda: p.Lambda, LineSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	e.fw = e.value(e.w)
	buf := make([]float64, e.BatchLen())
	e.Fill(buf)
	e.rec.Rounds++
	mat.Scal(-1, buf[:e.d], nil)
	w0, f0 := mat.Clone(e.w), e.fw

	if e.Process(buf) {
		t.Fatal("a failed line search stopped the solve")
	}
	if mat.NrmInf(e.dw) == 0 {
		t.Fatal("the negated gradient gave no direction to search")
	}
	for i := range w0 {
		if math.Float64bits(e.w[i]) != math.Float64bits(w0[i]) {
			t.Fatalf("w[%d] moved from %g to %g", i, w0[i], e.w[i])
		}
	}
	if e.fw != f0 || e.fw != e.value(e.w) {
		t.Fatalf("cached F = %g, want F(w) = %g (before the round %g)", e.fw, e.value(e.w), f0)
	}
}

func TestOptionsValidation(t *testing.T) {
	p := logitProblem(13)
	if _, err := ProxNewton(p.X, p.Y, Options{B: 2}); err == nil {
		t.Fatal("B > 1 accepted")
	}
	if _, err := ProxNewton(p.X, p.Y, Options{Lambda: -1}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := DistProxNewton(dist.NewSelfComm(perf.Comet()), LocalData{}, Options{}); err == nil {
		t.Fatal("nil local data accepted")
	}
}

func TestAccuracy(t *testing.T) {
	p := logitProblem(14)
	o := NewObjective(p.X, p.Y, Logistic{})
	zero := make([]float64, p.X.Rows)
	acc := o.Accuracy(zero)
	if acc < 0.3 || acc > 0.8 {
		t.Fatalf("zero-model accuracy %g implausible", acc)
	}
	// The generator's own coefficients must classify well.
	if acc := o.Accuracy(p.WTrue); acc < 0.88 {
		t.Fatalf("planted model accuracy %g", acc)
	}
}

func TestHuberLossShape(t *testing.T) {
	h := Huber{Delta: 2}
	// Quadratic inside, linear outside, continuous at the knee.
	if v := h.Value(1, 0); v != 0.5 {
		t.Fatalf("inside value = %g", v)
	}
	if v := h.Value(5, 0); v != 2*5-2 {
		t.Fatalf("outside value = %g", v)
	}
	knee := h.Value(2, 0)
	if math.Abs(knee-2) > 1e-15 {
		t.Fatalf("knee value = %g", knee)
	}
	// Derivative clips at +-Delta.
	if h.Deriv(100, 0) != 2 || h.Deriv(-100, 0) != -2 {
		t.Fatal("derivative not clipped")
	}
	if h.Second(1, 0) != 1 || h.Second(5, 0) != 0 {
		t.Fatal("second derivative wrong")
	}
	// Default Delta.
	if (Huber{}).Value(0.5, 0) != 0.125 {
		t.Fatal("default delta not 1")
	}
}

func TestHuberFiniteDiff(t *testing.T) {
	h := Huber{Delta: 1.5}
	for _, z := range []float64{-3, -1, 0, 0.5, 1.4, 1.6, 4} {
		const step = 1e-6
		fd := (h.Value(z+step, 0) - h.Value(z-step, 0)) / (2 * step)
		if math.Abs(fd-h.Deriv(z, 0)) > 1e-6 {
			t.Fatalf("Deriv(%g) = %g, fd %g", z, h.Deriv(z, 0), fd)
		}
	}
}

func TestProxNewtonHuberRobustToOutliers(t *testing.T) {
	// Plant a linear model, corrupt 5% of labels with huge outliers:
	// Huber PN must recover coefficients much better than squared PN.
	p := data.Generate(data.GenSpec{D: 12, M: 600, Density: 1, NoiseStd: 0.05, Seed: 60})
	g := rng.New(61)
	for i := 0; i < len(p.Y); i++ {
		if g.Float64() < 0.05 {
			p.Y[i] += 50 * g.NormFloat64()
		}
	}
	fit := func(loss Loss) float64 {
		res, err := ProxNewton(p.X, p.Y, Options{
			Loss: loss, Lambda: 0.01,
			OuterIter: 40, InnerIter: 30, B: 1, LineSearch: true, Seed: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		var errNorm float64
		for i := range res.W {
			d := res.W[i] - p.WTrue[i]
			errNorm += d * d
		}
		return math.Sqrt(errNorm)
	}
	huberErr := fit(Huber{Delta: 0.5})
	squaredErr := fit(Squared{})
	if huberErr >= squaredErr/2 {
		t.Fatalf("Huber not robust: coefficient error %g vs squared %g", huberErr, squaredErr)
	}
}
