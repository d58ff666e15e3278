package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

func TestEngineOneFeature(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 1, M: 50, Density: 1, Lambda: 0.01, Seed: 30})
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.2, 4, 30))
	o.B = 0.2
	o.MaxIter = 200
	res := selfSolve(t, p, o)
	if len(res.W) != 1 || math.IsNaN(res.W[0]) {
		t.Fatalf("W = %v", res.W)
	}
}

func TestEngineTinyBatch(t *testing.T) {
	// b so small that mbar clamps to 1 sample per Hessian.
	p := data.Generate(data.GenSpec{D: 6, M: 500, Density: 1, Lambda: 0.01, Seed: 31})
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.002, 10, 31))
	o.B = 0.002
	o.MaxIter = 50
	res := selfSolve(t, p, o)
	if res.Iters != 50 {
		t.Fatalf("iters = %d", res.Iters)
	}
	for _, v := range res.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite iterate: %v", res.W)
		}
	}
}

func TestEngineMaxIterSmallerThanRound(t *testing.T) {
	// MaxIter < k*S: the run must stop mid-round at exactly MaxIter.
	p, gamma, _ := testProblem(t, 10, 100, 1.0)
	o := baseOpts(p, gamma, math.NaN())
	o.K = 16
	o.S = 4
	o.MaxIter = 7
	o.Tol = 0
	res := selfSolve(t, p, o)
	if res.Iters != 7 {
		t.Fatalf("iters = %d, want 7", res.Iters)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestEngineImmediateConvergence(t *testing.T) {
	// F* set to F(0) with a huge tolerance: converges at checkpoint 0.
	p, gamma, _ := testProblem(t, 8, 60, 1.0)
	obj := prox.NewObjective(p.X, p.Y, prox.L1{Lambda: p.Lambda})
	f0 := obj.F(make([]float64, 8), nil)
	o := baseOpts(p, gamma, f0)
	o.Tol = 0.5
	res := selfSolve(t, p, o)
	if !res.Converged {
		t.Fatal("immediate convergence not detected")
	}
}

func TestEngineLambdaZeroIsLeastSquares(t *testing.T) {
	// lambda = 0: pure least squares; with planted noise-free labels
	// the loss must go to ~0 and w recover wTrue.
	p := data.Generate(data.GenSpec{D: 8, M: 200, Density: 1, NoiseStd: 0, Lambda: 0, Seed: 32})
	o := Defaults()
	o.Lambda = 0
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 32))
	o.B = 1
	o.MaxIter = 3000
	o.VarianceReduced = false
	res := selfSolve(t, p, o)
	for i := range res.W {
		if math.Abs(res.W[i]-p.WTrue[i]) > 1e-5 {
			t.Fatalf("w[%d] = %g, want %g", i, res.W[i], p.WTrue[i])
		}
	}
}

func TestEngineElasticNetRegularizer(t *testing.T) {
	// Options.Reg generalizes the engine beyond l1; elastic net must
	// converge and satisfy its own optimality condition approximately.
	p, _, _ := testProblem(t, 12, 200, 0.8)
	en := prox.ElasticNet{Lambda1: 0.02, Lambda2: 0.1}
	o := Defaults()
	o.Lambda = 0.02 // used only for trace naming consistency
	o.Reg = en
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 33))
	o.B = 1
	o.VarianceReduced = false
	o.MaxIter = 5000
	res := selfSolve(t, p, o)

	// KKT: grad f + lambda2 w in lambda1 * subdiff(||.||_1) at w.
	obj := prox.NewObjective(p.X, p.Y, prox.Zero{})
	grad := make([]float64, 12)
	obj.Gradient(grad, res.W, nil)
	for i, wi := range res.W {
		g := grad[i] + 0.1*wi
		if wi == 0 {
			if math.Abs(g) > 0.02+1e-4 {
				t.Fatalf("EN KKT zero-set at %d: %g", i, g)
			}
		} else if math.Abs(g+0.02*sign(wi)) > 1e-4 {
			t.Fatalf("EN KKT support at %d: %g (w=%g)", i, g, wi)
		}
	}
}

func TestEngineRidgeRegularizer(t *testing.T) {
	// Ridge (L2Squared) has a closed-form optimum:
	// (H + lambda I) w = R with H = (1/m) X X^T, R = (1/m) X y.
	p := data.Generate(data.GenSpec{D: 5, M: 300, Density: 1, NoiseStd: 0.1, Seed: 34})
	const ridge = 0.5
	o := Defaults()
	o.Reg = prox.L2Squared{Lambda: ridge}
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 34))
	o.B = 1
	o.VarianceReduced = false
	o.MaxIter = 5000
	res := selfSolve(t, p, o)

	// Verify (H + ridge I) w = R.
	obj := prox.NewObjective(p.X, p.Y, prox.Zero{})
	grad := make([]float64, 5)
	obj.Gradient(grad, res.W, nil) // = H w - R
	for i := range grad {
		if math.Abs(grad[i]+ridge*res.W[i]) > 1e-6 {
			t.Fatalf("ridge optimality at %d: %g", i, grad[i]+ridge*res.W[i])
		}
	}
}

func TestEngineVarianceReductionHelps(t *testing.T) {
	// At small b without VR, the plain stochastic gradient stalls at a
	// noise floor; with VR it keeps descending. Compare final errors.
	p, err := data.LoadWith("covtype", 2000, 54, 35)
	if err != nil {
		t.Fatal(err)
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 15000)
	gamma := GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.05, 8, 35))
	run := func(vr bool) float64 {
		o := Defaults()
		o.Lambda = p.Lambda
		o.Gamma = gamma
		o.FStar = fstar
		o.B = 0.05
		o.MaxIter = 600
		o.Tol = 0
		o.VarianceReduced = vr
		o.EvalEvery = 50
		res := selfSolve(t, p, o)
		return res.FinalRelErr
	}
	withVR := run(true)
	without := run(false)
	if withVR >= without {
		t.Fatalf("VR did not help: relerr %g (VR) vs %g (plain)", withVR, without)
	}
}

func TestEngineRejectsInconsistentLocalData(t *testing.T) {
	p, gamma, _ := testProblem(t, 4, 10, 1.0)
	o := baseOpts(p, gamma, math.NaN())
	o.Tol = 0 // NaN FStar: the relative-error stop would be rejected
	c := dist.NewSelfComm(perf.Comet())
	bad := Partition(p.X, p.Y, 1, 0)
	bad.Y = bad.Y[:5]
	if _, err := RCSFISTA(c, bad, o); err == nil {
		t.Fatal("inconsistent local data accepted")
	}
	if _, err := RCSFISTA(c, LocalData{}, o); err == nil {
		t.Fatal("nil local data accepted")
	}
}

func TestEngineCostExcludesInstrumentation(t *testing.T) {
	// Two runs differing only in EvalEvery must charge identical costs.
	p, gamma, fstar := testProblem(t, 10, 150, 1.0)
	run := func(evalEvery int) perf.Cost {
		o := baseOpts(p, gamma, fstar)
		o.Tol = 0
		o.MaxIter = 60
		o.EvalEvery = evalEvery
		res := selfSolve(t, p, o)
		return res.Cost
	}
	sparseEval := run(60)
	denseEval := run(1)
	if sparseEval != denseEval {
		t.Fatalf("instrumentation leaked into cost: %v vs %v", sparseEval, denseEval)
	}
}

func TestEngineSeedChangesTrajectoryNotResult(t *testing.T) {
	p, gamma, fstar := testProblem(t, 16, 300, 0.6)
	final := func(seed uint64) (float64, []float64) {
		o := baseOpts(p, gamma, fstar)
		o.Seed = seed
		o.Tol = 1e-4
		o.MaxIter = 3000
		res := selfSolve(t, p, o)
		if !res.Converged {
			t.Fatalf("seed %d did not converge", seed)
		}
		return res.FinalObj, res.W
	}
	f1, w1 := final(1)
	f2, w2 := final(2)
	// Different sample paths, same optimum (within tol of each other).
	if math.Abs(f1-f2) > 1e-3*math.Abs(f1) {
		t.Fatalf("seeds disagree on objective: %g vs %g", f1, f2)
	}
	same := true
	for i := range w1 {
		if w1[i] != w2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories (sampling broken)")
	}
}

func TestSFISTAWrapperForcesKS(t *testing.T) {
	p, gamma, _ := testProblem(t, 6, 50, 1.0)
	o := baseOpts(p, gamma, math.NaN())
	o.K = 8
	o.S = 4
	o.MaxIter = 20
	o.Tol = 0
	c := dist.NewSelfComm(perf.Comet())
	res, err := SFISTA(c, Partition(p.X, p.Y, 1, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 20 {
		t.Fatalf("SFISTA rounds = %d, want one per iteration", res.Rounds)
	}
	if res.Trace.Name != "sfista" {
		t.Fatalf("trace name %q", res.Trace.Name)
	}
}

func TestWarmStartAccelerates(t *testing.T) {
	p, gamma, fstar := testProblem(t, 20, 300, 0.6)
	cold := baseOpts(p, gamma, fstar)
	cold.Tol = 1e-4
	cold.MaxIter = 4000
	res := selfSolve(t, p, cold)
	if !res.Converged {
		t.Fatal("cold solve did not converge")
	}

	// Restarting at the solution must converge immediately (within one
	// evaluation interval).
	warm := cold
	warm.W0 = res.W
	res2 := selfSolve(t, p, warm)
	if !res2.Converged {
		t.Fatal("warm solve did not converge")
	}
	if res2.Iters > res.Iters/4 {
		t.Fatalf("warm start barely helped: %d vs %d iters", res2.Iters, res.Iters)
	}
}

func TestWarmStartLengthPanic(t *testing.T) {
	p, gamma, _ := testProblem(t, 6, 40, 1.0)
	o := baseOpts(p, gamma, math.NaN())
	o.Tol = 0 // NaN FStar: the relative-error stop would be rejected
	o.W0 = make([]float64, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	selfSolve(t, p, o)
}

func TestGradMapStopping(t *testing.T) {
	// Reference-free stopping: without FStar, the solver must still
	// terminate once the proximal gradient mapping norm is small, and
	// the returned point must satisfy the LASSO KKT conditions.
	p, gamma, _ := testProblem(t, 16, 300, 0.7)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.B = 0.2
	o.MaxIter = 20000
	o.Tol = 0 // no objective-based stop
	o.GradMapTol = 1e-6
	o.EpochLen = 40
	res := selfSolve(t, p, o)
	if !res.Converged {
		t.Fatalf("gradient-map stop never fired in %d iters", res.Iters)
	}
	if res.Iters >= o.MaxIter {
		t.Fatal("ran to the iteration cap")
	}
	obj := prox.NewObjective(p.X, p.Y, prox.Zero{})
	grad := make([]float64, 16)
	obj.Gradient(grad, res.W, nil)
	for i, wi := range res.W {
		if wi == 0 {
			if math.Abs(grad[i]) > p.Lambda+1e-4 {
				t.Fatalf("KKT zero-set at %d: %g", i, grad[i])
			}
		} else if math.Abs(grad[i]+p.Lambda*sign(wi)) > 1e-4 {
			t.Fatalf("KKT support at %d: %g", i, grad[i])
		}
	}
}

func TestGradMapStoppingDeltaForm(t *testing.T) {
	p, gamma, _ := testProblem(t, 12, 200, 0.8)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.B = 0.2
	o.MaxIter = 20000
	o.Tol = 0
	o.GradMapTol = 1e-6
	o.EpochLen = 40
	res := selfSolveStages(t, p, o, deltaStages)
	if !res.Converged || res.Iters >= o.MaxIter {
		t.Fatalf("delta-form gradient-map stop failed: converged=%v iters=%d",
			res.Converged, res.Iters)
	}
}
