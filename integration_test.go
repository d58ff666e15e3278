// End-to-end integration tests that run under plain `go test ./...`
// (the full paper artifacts live in the benchmarks). These pin the
// repository's headline behaviours on a small calibrated instance:
// RC-SFISTA converges, overlap cuts messages without changing iterates,
// Hessian-reuse cuts rounds, and the full solver stack (reference,
// ProxCoCoA, Proximal Newton) agrees on the optimum.
package rcsfista_test

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/cocoa"
	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

type testEnv struct {
	prob  *data.Problem
	gamma float64
	fstar float64
}

func setup(t testing.TB) *testEnv {
	t.Helper()
	p, err := data.LoadWith("covtype", 2000, 54, 99)
	if err != nil {
		t.Fatal(err)
	}
	l := solver.SampledLipschitz(p.X, p.Y, 0.1, 8, 99)
	_, fstar := solver.Reference(p.X, p.Y, p.Lambda, 15000)
	return &testEnv{prob: p, gamma: solver.GammaFromLipschitz(l), fstar: fstar}
}

func (e *testEnv) opts() solver.Options {
	o := solver.Defaults()
	o.Lambda = e.prob.Lambda
	o.Gamma = e.gamma
	o.FStar = e.fstar
	o.Tol = 1e-2
	o.MaxIter = 3000
	o.B = 0.1
	return o
}

func TestEndToEndRCSFISTA(t *testing.T) {
	env := setup(t)

	// SFISTA baseline at P=8.
	ob := env.opts()
	w1 := dist.NewWorld(8, perf.Comet())
	base, err := solver.SolveDistributed(w1, env.prob.X, env.prob.Y, ob)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatalf("SFISTA did not reach tol: relerr=%g", base.FinalRelErr)
	}

	// RC-SFISTA with k=8: identical iterates, ~8x fewer messages.
	oc := env.opts()
	oc.K = 8
	w2 := dist.NewWorld(8, perf.Comet())
	rc, err := solver.SolveDistributed(w2, env.prob.X, env.prob.Y, oc)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Converged {
		t.Fatalf("RC-SFISTA did not reach tol: relerr=%g", rc.FinalRelErr)
	}
	if rc.Cost.Messages*4 > base.Cost.Messages {
		t.Fatalf("k=8 did not cut messages enough: %d vs %d", rc.Cost.Messages, base.Cost.Messages)
	}
	if rc.ModelSeconds >= base.ModelSeconds {
		t.Fatalf("k=8 modeled time %g not below baseline %g", rc.ModelSeconds, base.ModelSeconds)
	}

	// Hessian-reuse: S=5 needs fewer communication rounds.
	os := env.opts()
	os.K = 8
	os.S = 5
	w3 := dist.NewWorld(8, perf.Comet())
	rs, err := solver.SolveDistributed(w3, env.prob.X, env.prob.Y, os)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Converged {
		t.Fatalf("S=5 did not reach tol: relerr=%g", rs.FinalRelErr)
	}
	if rs.Rounds >= rc.Rounds {
		t.Fatalf("S=5 rounds %d not below S=1 rounds %d", rs.Rounds, rc.Rounds)
	}
}

func TestEndToEndAllSolversAgree(t *testing.T) {
	env := setup(t)
	tol := 3e-2 // all solvers stop at relerr 1e-2, so objectives agree to ~2 tol

	check := func(name string, obj float64) {
		re := math.Abs(obj-env.fstar) / env.fstar
		if re > tol {
			t.Fatalf("%s objective %g is %g relative from reference %g", name, obj, re, env.fstar)
		}
	}

	// FISTA (deterministic sequential).
	of := env.opts()
	of.B = 1
	of.EvalEvery = 10
	fr, err := solver.FISTA(env.prob.X, env.prob.Y, of)
	if err != nil {
		t.Fatal(err)
	}
	check("fista", fr.FinalObj)

	// Proximal Newton (classic sequential).
	pn, err := erm.ProxNewton(env.prob.X, env.prob.Y, erm.Options{
		Lambda: env.prob.Lambda, OuterIter: 60, InnerIter: 25, B: 1,
		LineSearch: true, Tol: 1e-2, FStar: env.fstar, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("prox-newton", pn.FinalObj)

	// ProxCoCoA at P=4.
	w := dist.NewWorld(4, perf.Comet())
	cc, err := cocoa.SolveDistributed(w, env.prob.X, env.prob.Y, cocoa.Options{
		Lambda: env.prob.Lambda, Rounds: 4000, Tol: 1e-2, FStar: env.fstar, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("proxcocoa", cc.FinalObj)
}

func TestEndToEndLIBSVMWorkflow(t *testing.T) {
	// datagen -> file -> rcsfista, the CLI round trip, via the library.
	dir := t.TempDir()
	path := dir + "/train.svm"
	orig := data.Generate(data.GenSpec{D: 16, M: 300, Density: 0.5, Lambda: 0.02, Seed: 100})
	if err := data.WriteLIBSVMFile(path, orig); err != nil {
		t.Fatal(err)
	}
	prob, err := data.ReadLIBSVMFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	prob.Lambda = 0.02
	l := solver.SampledLipschitz(prob.X, prob.Y, 1, 1, 100)
	o := solver.Defaults()
	o.Lambda = prob.Lambda
	o.Gamma = solver.GammaFromLipschitz(l)
	o.B = 1
	o.MaxIter = 2000
	o.VarianceReduced = false
	c := dist.NewSelfComm(perf.Comet())
	res, err := solver.RCSFISTA(c, solver.Partition(prob.X, prob.Y, 1, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	// The planted support must be recovered through the file roundtrip.
	for i, truth := range orig.WTrue {
		if truth != 0 && res.W[i] == 0 {
			t.Fatalf("lost planted coordinate %d through LIBSVM roundtrip", i)
		}
	}
}
