package solver_test

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// Sequential Algorithm 1 on this package's LASSO runs through
// erm.ProxNewton with its default squared loss; these tests hold it to
// solver.Reference.

// lassoProblem is testProblem's LASSO instance with its reference
// optimum.
func lassoProblem(d, m int, density float64) (*data.Problem, float64) {
	p := data.Generate(data.GenSpec{D: d, M: m, Density: density, Lambda: 0.1, Seed: 7, NoiseStd: 0.01})
	_, fstar := solver.Reference(p.X, p.Y, p.Lambda, 5000)
	return p, fstar
}

func TestProxNewtonConverges(t *testing.T) {
	p, fstar := lassoProblem(20, 300, 0.6)
	res, err := erm.ProxNewton(p.X, p.Y, erm.Options{
		Lambda: p.Lambda, OuterIter: 40, InnerIter: 20, B: 1,
		Tol: 1e-4, FStar: fstar, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("PN did not converge: relerr=%g after %d outers", res.FinalRelErr, res.Iters)
	}
}

func TestProxNewtonSampledHessian(t *testing.T) {
	p, fstar := lassoProblem(16, 400, 0.6)
	res, err := erm.ProxNewton(p.X, p.Y, erm.Options{
		Lambda: p.Lambda, OuterIter: 60, InnerIter: 15, B: 0.3,
		LineSearch: true, Tol: 1e-3, FStar: fstar, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sampled-Hessian PN stalled: relerr=%g", res.FinalRelErr)
	}
}

func TestProxNewtonLineSearchMonotone(t *testing.T) {
	p, fstar := lassoProblem(12, 200, 1.0)
	res, err := erm.ProxNewton(p.X, p.Y, erm.Options{
		Lambda: p.Lambda, OuterIter: 15, InnerIter: 10, B: 1,
		LineSearch: true, FStar: fstar, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Trace.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Obj > pts[i-1].Obj*(1+1e-9) {
			t.Fatalf("objective increased at outer %d: %g -> %g", i, pts[i-1].Obj, pts[i].Obj)
		}
	}
}

func TestProxNewtonRejectsBadOptions(t *testing.T) {
	p, _ := lassoProblem(5, 20, 1.0)
	if _, err := erm.ProxNewton(p.X, p.Y, erm.Options{Lambda: 0.1, B: 2}); err == nil {
		t.Fatal("B > 1 accepted")
	}
	if _, err := erm.ProxNewton(p.X, p.Y, erm.Options{Lambda: -1}); err == nil {
		t.Fatal("negative lambda accepted")
	}
}
