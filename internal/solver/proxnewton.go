package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// PNOptions configures the Proximal Newton method (Algorithm 1).
type PNOptions struct {
	// Lambda is the l1 penalty.
	Lambda float64
	// OuterIter bounds the number of outer (Newton) iterations.
	OuterIter int
	// InnerIter is the per-subproblem inner solver iteration budget.
	InnerIter int
	// B is the Hessian sampling rate: H_n is approximated from a
	// floor(B*m)-column subsample (Algorithm 1 line 3, Section 5.5).
	// B = 1 uses the exact Hessian.
	B float64
	// Inner is the subproblem solver; nil selects FISTA with an
	// automatically estimated step.
	Inner QuadInner
	// LineSearch enables backtracking on the damping factor gamma_n
	// of Algorithm 1 line 6; otherwise the full step gamma_n = 1 is
	// taken.
	LineSearch bool
	// Tol / FStar define the relative objective error stop, as in
	// Options.
	Tol, FStar float64
	// Seed drives Hessian sampling.
	Seed uint64
	// TraceName overrides the recorded series name.
	TraceName string
}

// pnDefaults resolves zero fields.
func (o PNOptions) withDefaults() PNOptions {
	if o.OuterIter == 0 {
		o.OuterIter = 50
	}
	if o.InnerIter == 0 {
		o.InnerIter = 20
	}
	if o.B == 0 {
		o.B = 1
	}
	if o.FStar == 0 {
		o.FStar = math.NaN()
	}
	if o.TraceName == "" {
		o.TraceName = "prox-newton"
	}
	return o
}

// ProxNewton runs the classic sequential Algorithm 1 on the full data:
// at each outer iteration the Hessian is approximated by uniform column
// subsampling, the Eq. 19 subproblem is solved approximately by the
// configured inner solver, and the step is (optionally line-searched
// and) applied. It is the reference implementation the distributed
// variants are validated against. It runs on the unified
// solvercore Proximal Newton engine.
func ProxNewton(x *sparse.CSC, y []float64, opts PNOptions) (*Result, error) {
	return ProxNewtonContext(context.Background(), x, y, opts)
}

// ProxNewtonContext is ProxNewton under a context (see
// RCSFISTAContext for the cancellation contract).
func ProxNewtonContext(ctx context.Context, x *sparse.CSC, y []float64, opts PNOptions) (*Result, error) {
	opts = opts.withDefaults()
	if opts.B <= 0 || opts.B > 1 {
		return nil, fmt.Errorf("solver: PN sampling rate B = %g out of (0,1]", opts.B)
	}
	if opts.Lambda < 0 {
		return nil, errors.New("solver: PN Lambda must be non-negative")
	}
	d, m := x.Rows, x.Cols
	mbar := int(opts.B * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	cost := &perf.Cost{}
	g := prox.L1{Lambda: opts.Lambda}
	obj := prox.NewObjective(x, y, g)
	sampler := solvercore.StreamSampler{
		Src: rng.NewSource(opts.Seed), Epoch: 2,
		N: m, Draw: mbar, FullWhenSaturated: true,
	}
	rec := solvercore.NewRecorder(opts.TraceName, 0, cost, perf.Comet())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar

	r := make([]float64, d) // sampled R, discarded (exact gradient used)
	var cols []int          // the outer iteration's sample, kept across iterations
	return solvercore.RunProxNewton(ctx, solvercore.PNSpec{
		Rec:            rec,
		D:              d,
		W:              make([]float64, d),
		OuterIter:      opts.OuterIter,
		InnerIter:      opts.InnerIter,
		Reg:            g,
		Inner:          opts.Inner,
		LineSearch:     opts.LineSearch,
		ZeroStepOnFail: true,
		Exchange:       solvercore.IdentityExchanger{},
		// Line 3: H_n from a fresh uniform subsample.
		FillHessian: func(h *mat.SymPacked, w []float64, outer int, c *perf.Cost) {
			mat.Zero(r)
			cols = sampler.AppendSample(cols[:0], outer)
			sparse.SampledGramPacked(x, h, r, y, cols, 1/float64(mbar), c)
		},
		// Line 4 anchor: the exact gradient.
		FillGradient: func(grad, w []float64, c *perf.Cost) {
			obj.Gradient(grad, w, c)
		},
		Eval:     func(w []float64) float64 { return obj.F(w, nil) },
		StepEval: func(w []float64, c *perf.Cost) float64 { return obj.F(w, c) },
	})
}

// DistPNOptions configures the distributed Proximal Newton drivers of
// Section 3.3/5.5: the stochastic PN method whose inner solver is
// either plain (S-step) FISTA or RC-SFISTA with k-way
// iteration-overlapping.
type DistPNOptions struct {
	// Lambda, Gamma, B, Tol, FStar, Seed as in Options.
	Lambda, Gamma, B, Tol, FStar float64
	Seed                         uint64
	// OuterIter bounds the number of outer (Hessian) iterations.
	OuterIter int
	// InnerIter is the number of inner-solver iterations per
	// subproblem (the parameter tuned in Section 5.5).
	InnerIter int
	// K is the iteration-overlapping parameter of the RC-SFISTA inner
	// solver; K = 1 is the PN-with-FISTA baseline.
	K int
	// TraceName overrides the recorded series name.
	TraceName string
}

// DistProxNewtonContext runs the distributed stochastic Proximal Newton
// method under a context (see RCSFISTAContext for the cancellation
// contract). As Section 3.3 observes, applying (RC-)SFISTA to the Eq. 19
// subproblem is identical to applying the SFISTA recurrences while
// holding (H_n, R_n) fixed, so the driver delegates to the RC-SFISTA
// engine with a direct option mapping:
//
//   - one Hessian instance per outer iteration, reused for InnerIter
//     updates  ->  S = InnerIter;
//   - exact gradient anchor at the subproblem base point (Eq. 19 uses
//     grad f(w_n))  ->  variance reduction with EpochLen = K*InnerIter,
//     i.e. one exact-gradient refresh per communication round;
//   - K outer iterations' Hessians batched per allreduce -> K = K.
//
// With K = 1 this is "PN with FISTA as inner solver" (one packed
// d(d+1)/2-word Hessian allreduce and one d-word gradient allreduce per
// outer iteration);
// with K > 1 it is "PN with RC-SFISTA as inner solver", cutting
// latency by O(K) (Figure 7).
func DistProxNewtonContext(ctx context.Context, c dist.Comm, local LocalData, opts DistPNOptions) (*Result, error) {
	if opts.OuterIter <= 0 {
		opts.OuterIter = 100
	}
	if opts.InnerIter <= 0 {
		opts.InnerIter = 5
	}
	if opts.K <= 0 {
		opts.K = 1
	}
	name := opts.TraceName
	if name == "" {
		if opts.K == 1 {
			name = "pn-fista"
		} else {
			name = fmt.Sprintf("pn-rcsfista-k%d", opts.K)
		}
	}
	inner := Options{
		Lambda:          opts.Lambda,
		Gamma:           opts.Gamma,
		MaxIter:         opts.OuterIter * opts.InnerIter,
		Tol:             opts.Tol,
		FStar:           opts.FStar,
		B:               opts.B,
		K:               opts.K,
		S:               opts.InnerIter,
		VarianceReduced: true,
		EpochLen:        opts.K * opts.InnerIter,
		Seed:            opts.Seed,
		EvalEvery:       opts.InnerIter,
		TraceName:       name,
	}
	return RCSFISTAContext(ctx, c, local, inner)
}
