package solver

import (
	"fmt"
	"math"
	"time"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// FISTA runs the deterministic Algorithm 2 sequentially on the full
// data: w_n = Prox_gamma(v_n - gamma*grad f(v_n)) with the t_n momentum
// schedule. The exact gradient is applied matrix-free (no Gram matrix),
// so one iteration costs O(nnz(X)). Only Lambda, Gamma, MaxIter, Tol,
// FStar and EvalEvery of opts are honored.
func FISTA(x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	return accelSolve(x, y, opts, true)
}

// ISTA runs the unaccelerated proximal gradient method, the classical
// baseline FISTA improves on. Same option handling as FISTA.
func ISTA(x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	return accelSolve(x, y, opts, false)
}

func accelSolve(x *sparse.CSC, y []float64, opts Options, accelerate bool) (*Result, error) {
	opts = opts.withDefaults()
	if opts.EvalEvery == 0 {
		opts.EvalEvery = 1
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d := x.Rows
	m := x.Cols
	cost := &perf.Cost{}
	start := time.Now()

	var g prox.Operator = prox.L1{Lambda: opts.Lambda}
	if opts.Reg != nil {
		g = opts.Reg
	}
	obj := prox.NewObjective(x, y, g)

	// Precompute shift = (1/m) X y once.
	shift := make([]float64, d)
	mat.Zero(shift)
	x.MulVec(shift, y, cost)
	mat.Scal(1/float64(m), shift, cost)

	wPrev := make([]float64, d)
	wCurr := make([]float64, d)
	if opts.W0 != nil {
		if len(opts.W0) != d {
			return nil, fmt.Errorf("solver: W0 has %d coords, want %d", len(opts.W0), d)
		}
		copy(wPrev, opts.W0)
		copy(wCurr, opts.W0)
	}
	v := make([]float64, d)
	grad := make([]float64, d)
	scratch := make([]float64, m)

	name := opts.TraceName
	if name == "" {
		if accelerate {
			name = "fista"
		} else {
			name = "ista"
		}
	}
	res := &Result{Trace: &trace.Series{Name: name}, FinalRelErr: math.NaN(), GradMap: math.NaN()}

	record := func(iter int) bool {
		f := obj.F(wCurr, nil) // instrumentation: not charged
		re := relErr(f, opts.FStar)
		res.FinalObj, res.FinalRelErr = f, re
		res.Trace.Append(trace.Point{
			Iter: iter, Round: iter,
			Obj: f, RelErr: re,
			ModelSec: perf.Comet().Seconds(*cost),
			WallSec:  time.Since(start).Seconds(),
		})
		return opts.Tol > 0 && !math.IsNaN(re) && re <= opts.Tol
	}
	record(0)

	t := 1.0
	for n := 1; n <= opts.MaxIter; n++ {
		if accelerate {
			tNext := (1 + math.Sqrt(1+4*t*t)) / 2
			mu := (t - 1) / tNext
			t = tNext
			mat.Sub(v, wCurr, wPrev, cost)
			mat.AddScaled(v, wCurr, mu, v, cost)
		} else {
			copy(v, wCurr)
		}
		// grad = (1/m) X (X^T v) - shift, matrix-free.
		sparse.GramApply(x, grad, v, shift, scratch, 1/float64(m), cost)
		copy(wPrev, wCurr)
		mat.AddScaled(wCurr, v, -opts.Gamma, grad, cost)
		g.Apply(wCurr, wCurr, opts.Gamma, cost)

		res.Iters = n
		res.Rounds = n
		if n%opts.EvalEvery == 0 || n == opts.MaxIter {
			if record(n) {
				res.Converged = true
				break
			}
		}
	}
	res.W = wCurr
	res.Cost = *cost
	res.ModelSeconds = perf.Comet().Seconds(*cost)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// Reference computes a high-accuracy solution standing in for the
// paper's TFOCS reference (Section 5.1): a long FISTA run at tolerance
// driven purely by iteration stagnation. It returns the solution and
// the reference objective value F(w*).
func Reference(x *sparse.CSC, y []float64, lambda float64, maxIter int) ([]float64, float64) {
	if maxIter <= 0 {
		maxIter = 20000
	}
	l := prox.EstimateLipschitz(x, 30, nil, nil)
	if l <= 0 {
		// Zero data matrix: the optimum is w = 0.
		obj := prox.NewObjective(x, y, prox.L1{Lambda: lambda})
		w := make([]float64, x.Rows)
		return w, obj.F(w, nil)
	}
	opts := Defaults()
	opts.Lambda = lambda
	opts.Gamma = GammaFromLipschitz(l)
	opts.MaxIter = maxIter
	opts.EvalEvery = 100
	opts.Tol = 0
	res, err := FISTA(x, y, opts)
	if err != nil {
		panic("solver: Reference: " + err.Error()) // options are internally consistent
	}
	return res.W, res.FinalObj
}
