package erm

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
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

const (
	// hessianRidge is added to the diagonal of every combined sampled
	// Hessian (Levenberg-style damping): a subsample can leave H
	// singular, and the ridge keeps each subproblem strongly convex and
	// its power-iteration step finite.
	hessianRidge = 1e-8
	// stepTol stops the solve once an applied step moves no coordinate
	// by more than it: ||gamma_n dw||_inf <= stepTol.
	stepTol = 1e-10
	// lineSearchTrials bounds the halvings of gamma_n the line search
	// tests before it gives up on the round's direction.
	lineSearchTrials = 30
)

// Options configures the general-loss Proximal Newton solver
// (Algorithm 1 for the Eq. 1-2 problem class).
type Options struct {
	// Loss selects the per-sample loss; nil means Squared.
	Loss Loss
	// Reg is the non-smooth term g; nil means prox.L1{Lambda}.
	Reg prox.Operator
	// Lambda is the l1 penalty used when Reg is nil.
	Lambda float64
	// OuterIter bounds the Newton iterations; InnerIter the FISTA
	// steps per subproblem.
	OuterIter, InnerIter int
	// B is the Hessian sampling rate in (0, 1].
	B float64
	// LineSearch enables backtracking on the damping factor gamma_n.
	LineSearch bool
	// Tol stops when |F - FStar|/|FStar| <= Tol (needs FStar). The
	// solve also stops once an applied step falls below stepTol in the
	// infinity norm (always checked).
	Tol, FStar float64
	// Seed drives Hessian sampling.
	Seed uint64
	// W0 optionally warm-starts the outer loop; nil starts from zero.
	// The slice is copied, not retained. A good W0 shrinks the first
	// Newton step, which is what lets the serving layer's lambda-path
	// cache help non-least-squares fits too.
	W0 []float64
	// TraceName overrides the recorded series name.
	TraceName string
}

func (o Options) withDefaults() Options {
	if o.Loss == nil {
		o.Loss = Squared{}
	}
	if o.Reg == nil {
		o.Reg = prox.L1{Lambda: o.Lambda}
	}
	if o.OuterIter == 0 {
		o.OuterIter = 50
	}
	if o.InnerIter == 0 {
		o.InnerIter = 25
	}
	if o.B == 0 {
		o.B = 1
	}
	if o.FStar == 0 {
		o.FStar = math.NaN()
	}
	if o.TraceName == "" {
		o.TraceName = "erm-pn-" + o.Loss.Name()
	}
	return o
}

func (o Options) validate() error {
	if o.B <= 0 || o.B > 1 {
		return fmt.Errorf("erm: sampling rate B = %g out of (0,1]", o.B)
	}
	if o.Lambda < 0 {
		return errors.New("erm: Lambda must be non-negative")
	}
	return nil
}

// ProxNewton solves min (1/m) sum loss(x_i^T w, y_i) + g(w)
// sequentially with sampled-Hessian Proximal Newton and FISTA
// subproblem solves. With the default Squared loss and l1 term it is
// the paper's Algorithm 1 on the LASSO.
func ProxNewton(x *sparse.CSC, y []float64, opts Options) (*solver.Result, error) {
	return DistProxNewton(dist.NewSelfComm(perf.Comet()), Partition(x, y, 1, 0), opts)
}

// LocalData is one rank's column (sample) block, shared with the
// solver package through solvercore.
type LocalData = solvercore.LocalData

// Partition returns rank's contiguous column block.
var Partition = solvercore.Partition

// DistProxNewton runs Algorithm 1 for a general loss on communicator
// c. Per outer iteration: one allreduce of the exact gradient (d
// words) and one allreduce of the sampled Hessian in packed symmetric
// form (d(d+1)/2 words). The
// iteration-overlapping of RC-SFISTA does NOT apply here because
// H(w_n) depends on the current iterate (see the package comment);
// this solver is the baseline the least-squares specialization
// improves on.
func DistProxNewton(c dist.Comm, local LocalData, opts Options) (*solver.Result, error) {
	return DistProxNewtonContext(context.Background(), c, local, opts)
}

// DistProxNewtonContext is DistProxNewton under a context (see
// solver.RCSFISTAContext for the cancellation contract).
func DistProxNewtonContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*solver.Result, error) {
	e, err := newPNEngine(c, local, opts)
	if err != nil {
		return nil, err
	}
	e.fw = e.value(e.w)
	e.rec.CheckpointAt(0, 0, e.fw)
	err = solvercore.Loop(solvercore.Spec{
		Ctx:      ctx,
		Comm:     c,
		Rec:      e.rec,
		Fill:     e,
		Exchange: solvercore.SegmentedExchanger{C: c, Segs: []int{e.d, mat.PackedLen(e.d)}},
		Pass:     e,
		Stop:     e,
	})
	return e.rec.Finish(e.w), err
}

// pnEngine is one rank's Proximal Newton solve on the shared round
// loop, its BatchFiller, InnerPass and StopPolicy: one round is one
// outer iteration — fill the [d gradient | d(d+1)/2 packed Hessian]
// payload, allreduce it, solve the Eq. 19 subproblem with FISTA, damp
// the step, checkpoint.
type pnEngine struct {
	c     dist.Comm
	opts  Options
	local LocalData
	obj   *Objective
	rec   *solvercore.Recorder
	d     int
	mbar  int

	sampler solvercore.StreamSampler
	// draw is the outer iteration's global sample and localCols the
	// rank's columns of it, kept across iterations.
	draw, localCols []int

	w, dw, cand []float64
	// fw is F(w), the value the line search compares against and the
	// checkpoints record.
	fw    float64
	fista solvercore.FISTAInner
	// Round scratch, so a warm round allocates nothing: the packed
	// Hessian view over the payload, the subproblem's R, the power
	// iteration's two vectors and value's one-word allreduce buffer.
	h          mat.SymPacked
	r, pv, phv []float64
	sum        [1]float64
}

// newPNEngine validates opts and sets up a solve from opts.W0 (zero
// when nil).
func newPNEngine(c dist.Comm, local LocalData, opts Options) (*pnEngine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if local.X == nil || local.X.Cols != len(local.Y) {
		return nil, errors.New("erm: inconsistent local data")
	}
	d, m := local.X.Rows, local.MGlobal
	mbar := max(int(opts.B*float64(m)), 1)
	w := make([]float64, d)
	if opts.W0 != nil {
		if len(opts.W0) != d {
			return nil, fmt.Errorf("erm: W0 length %d != d = %d", len(opts.W0), d)
		}
		copy(w, opts.W0)
	}
	rec := solvercore.NewRecorder(opts.TraceName, c.Rank(), c.Cost(), c.Machine())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar
	return &pnEngine{
		c:       c,
		opts:    opts,
		local:   local,
		obj:     NewObjective(local.X, local.Y, opts.Loss),
		rec:     rec,
		d:       d,
		mbar:    mbar,
		sampler: solvercore.StreamSampler{Src: rng.NewSource(opts.Seed), Epoch: 4, N: m, Draw: mbar},
		w:       w,
		dw:      make([]float64, d),
		cand:    make([]float64, d),
		h:       mat.SymPacked{N: d},
		r:       make([]float64, d),
		pv:      make([]float64, d),
		phv:     make([]float64, d),
	}, nil
}

// value returns F(w) on every rank with one scalar allreduce. It is
// instrumentation and step control, not algorithm: its cost is rolled
// back.
func (e *pnEngine) value(w []float64) float64 {
	cost := e.c.Cost()
	saved := *cost
	e.sum[0] = e.obj.Value(w, nil) * float64(e.local.X.Cols)
	e.c.Allreduce(e.sum[:], dist.OpSum)
	*cost = saved
	return e.sum[0]/float64(e.local.MGlobal) + e.opts.Reg.Value(w, nil)
}

// BatchLen is the payload length: d gradient words then the packed
// Hessian.
func (e *pnEngine) BatchLen() int { return e.d + mat.PackedLen(e.d) }

// packed points the engine's Hessian view at payload's packed tail.
func (e *pnEngine) packed(payload []float64) *mat.SymPacked {
	e.h.Data = payload[e.d:]
	return &e.h
}

// Fill computes the round's local payload at the current iterate and
// returns its cost.
func (e *pnEngine) Fill(buf []float64) perf.Cost {
	var cost perf.Cost
	// Line 3: the sampled Hessian over the rank's columns of the
	// iteration's global sample. SampledHessianPacked scales by
	// 1/len(cols); rescale so the global sum is (1/mbar) times the sum
	// over the whole sample.
	h := e.packed(buf)
	h.Zero()
	e.draw = e.sampler.AppendSample(e.draw[:0], e.rec.Rounds+1)
	e.localCols = e.local.AppendLocalCols(e.localCols[:0], e.draw)
	if len(e.localCols) > 0 {
		e.obj.SampledHessianPacked(h, e.w, e.localCols, &cost)
		mat.Scal(float64(len(e.localCols))/float64(e.mbar), h.Data, &cost)
	}
	// The subproblem's anchor: the rank's partial of the exact
	// gradient, scaled by its share of the samples.
	grad := buf[:e.d]
	e.obj.Gradient(grad, e.w, &cost)
	mat.Scal(float64(e.local.X.Cols)/float64(e.local.MGlobal), grad, &cost)
	return cost
}

// Process consumes the combined payload: subproblem solve, damped
// (optionally line-searched) step, checkpoint, stop checks.
func (e *pnEngine) Process(shared []float64) bool {
	cost, outer := e.rec.Cost, e.rec.Rounds
	grad := shared[:e.d]
	h := e.packed(shared)
	for i := 0; i < e.d; i++ {
		h.Set(i, i, h.At(i, i)+hessianRidge)
	}

	// Line 4: the Eq. 19 subproblem anchored at the exact gradient,
	// solved by FISTA warm-started at w.
	quad := solvercore.NewSubproblem(e.r, h, e.w, grad, cost)
	e.fista.Gamma = 1 / solvercore.PowerIterate(h, 20, e.pv, e.phv, cost)
	z := e.fista.Solve(quad, e.opts.Reg, e.w, e.opts.InnerIter, cost)

	// Lines 5-6: the damped update.
	mat.Sub(e.dw, z, e.w, cost)
	step := 1.0
	if e.opts.LineSearch {
		step = e.lineSearch(cost)
	}
	mat.Axpy(step, e.dw, e.w, cost)
	if !e.opts.LineSearch {
		e.fw = e.value(e.w)
	}

	e.rec.Iter = outer
	if e.rec.CheckpointAt(outer, outer, e.fw) {
		e.rec.Converged = true
		return true
	}
	if step > 0 && mat.NrmInf(e.dw)*step <= stepTol {
		e.rec.Converged = e.rec.FinalRelErr <= e.rec.Tol || math.IsNaN(e.rec.FinalRelErr)
		return true
	}
	return false
}

// lineSearch halves gamma_n from 1 until F(w + gamma_n dw) <= F(w),
// testing at most lineSearchTrials steps, and returns the accepted
// step with its F cached in fw. When no tested step decreases F — a
// badly subsampled Hessian can make dw an ascent direction — it
// returns 0: w and fw stay, and the next iteration draws a fresh
// Hessian.
func (e *pnEngine) lineSearch(cost *perf.Cost) float64 {
	step := 1.0
	for trial := 0; trial < lineSearchTrials; trial++ {
		mat.AddScaled(e.cand, e.w, step, e.dw, cost)
		if f := e.value(e.cand); f <= e.fw {
			e.fw = f
			return step
		}
		step /= 2
	}
	return 0
}

// OnSkip stops the solve: the segmented exchange never loses a round,
// so a nil payload means the configuration is broken, not transient.
func (e *pnEngine) OnSkip() bool { return true }

// Done gates round starts on the outer iteration budget.
func (e *pnEngine) Done() bool { return e.rec.Rounds >= e.opts.OuterIter }
