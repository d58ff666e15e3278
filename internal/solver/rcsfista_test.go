package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// testProblem builds a small well-conditioned LASSO instance plus its
// reference solution.
func testProblem(t *testing.T, d, m int, density float64) (*data.Problem, float64, float64) {
	t.Helper()
	p := data.Generate(data.GenSpec{D: d, M: m, Density: density, Lambda: 0.1, Seed: 7, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	if l <= 0 {
		t.Fatal("non-positive Lipschitz estimate")
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 5000)
	return p, GammaFromLipschitz(l), fstar
}

func baseOpts(p *data.Problem, gamma, fstar float64) Options {
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = gamma
	o.FStar = fstar
	o.MaxIter = 2000
	o.Tol = 1e-3
	o.B = 0.2
	o.EvalEvery = 10
	return o
}

func selfSolve(t *testing.T, p *data.Problem, o Options) *Result {
	t.Helper()
	c := dist.NewSelfComm(perf.Comet())
	local := Partition(p.X, p.Y, 1, 0)
	res, err := RCSFISTA(c, local, o)
	if err != nil {
		t.Fatalf("RCSFISTA: %v", err)
	}
	return res
}

func TestSFISTAConverges(t *testing.T) {
	p, gamma, fstar := testProblem(t, 30, 600, 0.5)
	o := baseOpts(p, gamma, fstar)
	res := selfSolve(t, p, o)
	if !res.Converged {
		t.Fatalf("did not converge: relerr=%g after %d iters", res.FinalRelErr, res.Iters)
	}
}

func TestFISTASpecialCaseMatchesStandaloneFISTA(t *testing.T) {
	// b = 1, k = S = 1, VR off: the engine must reproduce the plain
	// FISTA trajectory (up to the Gram-vs-matrix-free gradient
	// round-off).
	p, gamma, fstar := testProblem(t, 20, 200, 1.0)
	o := baseOpts(p, gamma, fstar)
	o.B = 1
	o.VarianceReduced = false
	o.MaxIter = 300
	o.Tol = 0
	res := selfSolve(t, p, o)

	fo := o
	fres, err := FISTA(p.X, p.Y, fo)
	if err != nil {
		t.Fatalf("FISTA: %v", err)
	}
	var maxDiff float64
	for i := range res.W {
		maxDiff = math.Max(maxDiff, math.Abs(res.W[i]-fres.W[i]))
	}
	if maxDiff > 1e-6 {
		t.Fatalf("engine(b=1) and FISTA diverged: max |dw| = %g (relerr %g vs %g)",
			maxDiff, res.FinalRelErr, fres.FinalRelErr)
	}
	_ = fstar
}

func TestOverlapKInvariance(t *testing.T) {
	// Figure 2(b): with S = 1, RC-SFISTA at any k is the same
	// algorithm as SFISTA in exact arithmetic — and bit-for-bit here,
	// because the direct-update path performs the identical arithmetic
	// sequence once the Hessians are (deterministically) allreduced.
	p, gamma, fstar := testProblem(t, 25, 400, 0.4)
	o := baseOpts(p, gamma, fstar)
	o.MaxIter = 240
	o.Tol = 0
	o.EvalEvery = 8

	ref := selfSolve(t, p, o)
	for _, k := range []int{2, 4, 8, 16} {
		ok := o
		ok.K = k
		res := selfSolve(t, p, ok)
		for i := range res.W {
			if res.W[i] != ref.W[i] {
				t.Fatalf("k=%d: iterate differs from k=1 at coord %d: %g vs %g",
					k, i, res.W[i], ref.W[i])
			}
		}
	}
}

func TestRankCountInvariance(t *testing.T) {
	// The iterates must not depend on P: sampling is a pure function
	// of the seed, and the deterministic rank-ordered allreduce makes
	// the Hessian sums independent of the partition... up to the
	// floating-point regrouping of partial sums across block
	// boundaries, which the deterministic reduction keeps identical
	// because each rank sums its own block in global column order.
	p, gamma, fstar := testProblem(t, 16, 240, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.MaxIter = 120
	o.Tol = 0
	o.K = 4

	ref := selfSolve(t, p, o)
	for _, procs := range []int{2, 3, 5, 8} {
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		var maxDiff float64
		for i := range res.W {
			maxDiff = math.Max(maxDiff, math.Abs(res.W[i]-ref.W[i]))
		}
		// Partial sums regroup across ranks; tolerance is round-off.
		if maxDiff > 1e-10 {
			t.Fatalf("P=%d: max |dw| = %g vs P=1", procs, maxDiff)
		}
	}
}

func TestDeltaFormEquivalence(t *testing.T) {
	// Eqs. 16-17 are algebraically identical to the direct updates the
	// engine runs; against the test-held deltaPass, floating point
	// differences must stay at round-off scale.
	p, gamma, fstar := testProblem(t, 20, 300, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.K = 4

	// Short horizon: the recurrences are algebraically identical, so
	// iterates agree to round-off before any soft-threshold support
	// decision can flip.
	o.MaxIter = 40
	direct := selfSolve(t, p, o)
	delta := selfSolveStages(t, p, o, deltaStages)
	var maxDiff float64
	for i := range direct.W {
		maxDiff = math.Max(maxDiff, math.Abs(direct.W[i]-delta.W[i]))
	}
	if maxDiff > 1e-9 {
		t.Fatalf("delta form diverged from direct over 40 iters: max |dw| = %g", maxDiff)
	}

	// Long horizon: accumulated round-off may flip individual
	// soft-threshold support decisions (the iterate paths separate),
	// but both forms must still reach the same objective level.
	o.MaxIter = 600
	direct = selfSolve(t, p, o)
	delta = selfSolveStages(t, p, o, deltaStages)
	if re := math.Abs(direct.FinalObj-delta.FinalObj) / direct.FinalObj; re > 1e-2 {
		t.Fatalf("delta and direct objectives differ by %g relative (%g vs %g)",
			re, delta.FinalObj, direct.FinalObj)
	}
}

func TestHessianReuseReducesRounds(t *testing.T) {
	// Figure 3: larger S needs fewer communication rounds to a fixed
	// tolerance (until over-solving).
	p, gamma, fstar := testProblem(t, 30, 600, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 1e-2
	o.MaxIter = 4000
	o.EvalEvery = 5

	o1 := o
	o1.S = 1
	r1 := selfSolve(t, p, o1)
	o5 := o
	o5.S = 5
	r5 := selfSolve(t, p, o5)
	if !r1.Converged || !r5.Converged {
		t.Fatalf("convergence failed: S=1 %v, S=5 %v", r1.Converged, r5.Converged)
	}
	if r5.Rounds >= r1.Rounds {
		t.Fatalf("S=5 used %d rounds, S=1 used %d — Hessian-reuse did not reduce rounds",
			r5.Rounds, r1.Rounds)
	}
}
