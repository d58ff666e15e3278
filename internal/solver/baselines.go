package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// ProxSVRG runs the (non-accelerated) proximal stochastic variance
// reduced gradient method of Xiao & Zhang 2014 — the paper's reference
// [34] and the algorithm SFISTA adds Nesterov acceleration to. Epochs
// of EpochLen updates share one exact-gradient snapshot; each update
// samples mbar = floor(B*m) columns for the Eq. 9 estimator and takes
// an unaccelerated proximal step. Options fields honored: Lambda, Reg,
// Gamma, MaxIter, Tol, FStar, B, EpochLen, Seed, EvalEvery, TraceName,
// W0.
//
// Against SFISTA it isolates the value of acceleration: same variance
// reduction, no momentum (see TestSFISTABeatsProxSVRG).
//
// EvalEvery defaults through the one shared withDefaults (K*S = 1 for
// this solver), the same resolution every other entry point uses.
func ProxSVRG(x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	return ProxSVRGContext(context.Background(), x, y, opts)
}

// ProxSVRGContext is ProxSVRG under a context (see RCSFISTAContext
// for the cancellation contract).
func ProxSVRGContext(ctx context.Context, x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d, m := x.Rows, x.Cols
	mbar := int(opts.B * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	cost := &perf.Cost{}
	obj := prox.NewObjective(x, y, opts.Reg)

	w := make([]float64, d)
	if opts.W0 != nil {
		if len(opts.W0) != d {
			return nil, fmt.Errorf("solver: W0 has %d coords, want %d", len(opts.W0), d)
		}
		copy(w, opts.W0)
	}
	name := opts.TraceName
	if name == "" {
		name = "prox-svrg"
	}
	rec := solvercore.NewRecorder(name, 0, cost, perf.Comet())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar

	e := &svrgEngine{
		rec: rec, opts: opts, x: x, y: y, obj: obj,
		d: d, m: m, mbar: mbar, hLen: mat.PackedLen(d),
		sampler: solvercore.StreamSampler{
			Src: rng.NewSource(opts.Seed), Epoch: 1, N: m, Draw: mbar,
		},
		w:        w,
		wSnap:    make([]float64, d),
		fullGrad: make([]float64, d),
		grad:     make([]float64, d),
		tmp:      make([]float64, d),
	}
	rec.CheckpointAt(0, 0, obj.F(w, nil))
	e.refresh()
	err := solvercore.Loop(solvercore.Spec{
		Ctx:      ctx,
		Rec:      rec,
		Fill:     e,
		Exchange: solvercore.IdentityExchanger{},
		Pass:     e,
		Stop:     e,
	})
	return rec.Finish(w), err
}

// svrgEngine is the BatchFiller, InnerPass and StopPolicy of one
// ProxSVRG solve; one round = one solution update. It runs without a
// communicator (IdentityExchanger): the "shared" batch is the local
// one.
type svrgEngine struct {
	rec  *solvercore.Recorder
	opts Options
	x    *sparse.CSC
	y    []float64
	obj  *prox.Objective

	d, m, mbar, hLen int
	sampler          solvercore.StreamSampler
	cols             []int // the round's sample, kept across rounds

	w, wSnap, fullGrad, grad, tmp []float64
	sinceSnap, sinceEval          int
}

// BatchLen is the [packed H | R] payload length.
func (e *svrgEngine) BatchLen() int { return e.hLen + e.d }

// Fill computes the sampled Gram instance of the next update (same
// estimator as SFISTA) into buf.
func (e *svrgEngine) Fill(buf []float64) perf.Cost {
	n := e.rec.Rounds + 1
	e.cols = e.sampler.AppendSample(e.cols[:0], n)
	h := mat.SymPackedOf(e.d, buf[:e.hLen])
	h.Zero()
	mat.Zero(buf[e.hLen:])
	var cost perf.Cost
	sparse.SampledGramPacked(e.x, h, buf[e.hLen:], e.y, e.cols, 1/float64(e.mbar), &cost)
	return cost
}

// refresh re-centers the variance-reduction snapshot.
func (e *svrgEngine) refresh() {
	copy(e.wSnap, e.w)
	e.obj.Gradient(e.fullGrad, e.wSnap, e.rec.Cost)
}

// Process takes one unaccelerated VR proximal step.
func (e *svrgEngine) Process(shared []float64) bool {
	opts, cost := e.opts, e.rec.Cost
	n := e.rec.Rounds
	h := mat.SymPackedOf(e.d, shared[:e.hLen])

	// VR gradient at w (no momentum point): H (w - wSnap) + fullGrad.
	mat.Sub(e.tmp, e.w, e.wSnap, cost)
	h.MulVec(e.grad, e.tmp, cost)
	mat.Axpy(1, e.fullGrad, e.grad, cost)

	// Plain proximal step.
	mat.AddScaled(e.w, e.w, -opts.Gamma, e.grad, cost)
	opts.Reg.Apply(e.w, e.w, opts.Gamma, cost)

	e.rec.Iter = n
	e.sinceSnap++
	e.sinceEval++
	if e.sinceSnap >= opts.EpochLen {
		e.refresh()
		e.sinceSnap = 0
	}
	if e.sinceEval >= opts.EvalEvery || n == opts.MaxIter {
		e.sinceEval = 0
		if e.rec.CheckpointAt(n, n, e.obj.F(e.w, nil)) {
			e.rec.Converged = true
			return true
		}
	}
	return false
}

// OnSkip never fires: the identity exchange cannot lose a round.
func (e *svrgEngine) OnSkip() bool { return true }

// Done gates on the iteration budget.
func (e *svrgEngine) Done() bool { return e.rec.Rounds >= e.opts.MaxIter }

// CoordinateDescent runs GLMNET-style cyclic coordinate descent for
// the LASSO (Friedman, Hastie & Tibshirani 2010 — the paper's
// reference [16]): each sweep minimizes exactly over every coordinate
// in turn using the closed-form soft-threshold update, maintaining the
// residual incrementally. MaxIter counts SWEEPS. Options fields
// honored: Lambda, MaxIter, Tol, FStar, EvalEvery (in sweeps),
// TraceName, W0. Reg is fixed to l1 (the closed form requires it).
func CoordinateDescent(x *sparse.CSC, y []float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Gamma is unused; satisfy validation with a placeholder.
	if opts.Gamma == 0 {
		opts.Gamma = 1
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d, m := x.Rows, x.Cols
	cost := &perf.Cost{}
	start := time.Now()
	g := prox.L1{Lambda: opts.Lambda}
	obj := prox.NewObjective(x, y, g)
	xRows := x.ToCSR()

	// Per-feature squared norms (the coordinate curvatures).
	norm2 := make([]float64, d)
	for i := 0; i < d; i++ {
		_, vals := xRows.Row(i)
		var s float64
		for _, v := range vals {
			s += v * v
		}
		norm2[i] = s / float64(m)
	}
	cost.AddFlops(int64(2 * x.Nnz()))

	w := make([]float64, d)
	res := make([]float64, m) // residual X^T w - y
	for j := range res {
		res[j] = -y[j]
	}
	if opts.W0 != nil {
		if len(opts.W0) != d {
			return nil, fmt.Errorf("solver: W0 has %d coords, want %d", len(opts.W0), d)
		}
		copy(w, opts.W0)
		x.MulVecT(res, w, cost)
		mat.Axpy(-1, y, res, cost)
	}

	name := opts.TraceName
	if name == "" {
		name = "cd"
	}
	out := &Result{Trace: &trace.Series{Name: name}, FinalRelErr: math.NaN(), GradMap: math.NaN()}
	record := func(sweep int) bool {
		f := obj.F(w, nil)
		re := relErr(f, opts.FStar)
		out.FinalObj, out.FinalRelErr = f, re
		out.Trace.Append(trace.Point{
			Iter: sweep, Round: sweep, Obj: f, RelErr: re,
			ModelSec: perf.Comet().Seconds(*cost),
			WallSec:  time.Since(start).Seconds(),
		})
		return opts.Tol > 0 && !math.IsNaN(re) && re <= opts.Tol
	}
	record(0)

	for sweep := 1; sweep <= opts.MaxIter; sweep++ {
		for i := 0; i < d; i++ {
			if norm2[i] == 0 {
				continue
			}
			cols, vals := xRows.Row(i)
			// rho = (1/m) x_i . (residual without coordinate i's own
			// contribution), folded as rho = norm2[i]*w[i] - (1/m) x_i.res.
			var dot float64
			for k, j := range cols {
				dot += vals[k] * res[j]
			}
			rho := norm2[i]*w[i] - dot/float64(m)
			wi := prox.SoftThreshold(rho, opts.Lambda) / norm2[i]
			if delta := wi - w[i]; delta != 0 {
				w[i] = wi
				for k, j := range cols {
					res[j] += delta * vals[k]
				}
				cost.AddFlops(int64(2 * len(cols)))
			}
			cost.AddFlops(int64(2*len(cols) + 8))
		}
		out.Iters = sweep
		out.Rounds = sweep
		if sweep%opts.EvalEvery == 0 || sweep == opts.MaxIter {
			if record(sweep) {
				out.Converged = true
				break
			}
		}
	}
	out.W = w
	out.Cost = *cost
	out.ModelSeconds = perf.Comet().Seconds(*cost)
	out.WallSeconds = time.Since(start).Seconds()
	return out, nil
}
