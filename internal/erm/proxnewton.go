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
	// Ridge adds Ridge*I to the sampled Hessian (Levenberg-style
	// damping); useful when subsampling can make H singular. Zero
	// selects a small default of 1e-8.
	Ridge float64
	// LineSearch enables backtracking on the damping factor gamma_n.
	LineSearch bool
	// Tol stops when |F - FStar|/|FStar| <= Tol (needs FStar), or when
	// the step norm falls below StepTol (always checked).
	Tol, FStar float64
	// StepTol is the minimum step infinity-norm before declaring
	// convergence; zero selects 1e-10.
	StepTol float64
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
	if o.Ridge == 0 {
		o.Ridge = 1e-8
	}
	if o.StepTol == 0 {
		o.StepTol = 1e-10
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
// subproblem solves.
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
// improves on. It runs on the unified solvercore Proximal Newton
// engine, parameterized by Loss.
func DistProxNewton(c dist.Comm, local LocalData, opts Options) (*solver.Result, error) {
	return DistProxNewtonContext(context.Background(), c, local, opts)
}

// DistProxNewtonContext is DistProxNewton under a context (see
// solver.RCSFISTAContext for the cancellation contract).
func DistProxNewtonContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*solver.Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if local.X == nil || local.X.Cols != len(local.Y) {
		return nil, errors.New("erm: inconsistent local data")
	}
	d := local.X.Rows
	m := local.MGlobal
	mbar := int(opts.B * float64(m))
	if mbar < 1 {
		mbar = 1
	}
	w0 := make([]float64, d)
	if opts.W0 != nil {
		if len(opts.W0) != d {
			return nil, fmt.Errorf("erm: W0 length %d != d = %d", len(opts.W0), d)
		}
		copy(w0, opts.W0)
	}
	cost := c.Cost()
	localObj := NewObjective(local.X, local.Y, opts.Loss)
	sampler := solvercore.StreamSampler{
		Src: rng.NewSource(opts.Seed), Epoch: 4, N: m, Draw: mbar,
	}
	rec := solvercore.NewRecorder(opts.TraceName, c.Rank(), cost, c.Machine())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar

	// globalValue evaluates F(w) with one scalar allreduce
	// (instrumentation: cost rolled back).
	globalValue := func(w []float64) float64 {
		saved := *cost
		f := localObj.Value(w, nil) * float64(local.X.Cols)
		f = dist.AllreduceScalar(c, f, dist.OpSum) / float64(m)
		*cost = saved
		return f + opts.Reg.Value(w, nil)
	}
	// The outer iteration's global sample and its owned columns, kept
	// across iterations.
	var draw, localCols []int

	return solvercore.RunProxNewton(ctx, solvercore.PNSpec{
		Comm:       c,
		Rec:        rec,
		D:          d,
		W:          w0,
		OuterIter:  opts.OuterIter,
		InnerIter:  opts.InnerIter,
		Reg:        opts.Reg,
		LineSearch: opts.LineSearch,
		StepTol:    opts.StepTol,
		Exchange:   solvercore.SegmentedExchanger{C: c, Segs: []int{d, mat.PackedLen(d)}},
		// Sampled Hessian at w: shared global sample set, local
		// contribution over owned columns. SampledHessian scales by
		// 1/len(cols); rescale so the global sum is (1/mbar) * sum over
		// the whole sample set.
		FillHessian: func(h *mat.SymPacked, w []float64, outer int, c *perf.Cost) {
			draw = sampler.AppendSample(draw[:0], outer)
			localCols = local.AppendLocalCols(localCols[:0], draw)
			if len(localCols) > 0 {
				localObj.SampledHessianPacked(h, w, localCols, c)
				mat.Scal(float64(len(localCols))/float64(mbar), h.Data, c)
			}
		},
		// Exact gradient: local partial, scaled by the local share.
		FillGradient: func(grad, w []float64, c *perf.Cost) {
			localObj.Gradient(grad, w, c)
			mat.Scal(float64(local.X.Cols)/float64(m), grad, c)
		},
		// Ridge damping on the combined Hessian.
		PostExchange: func(h *mat.SymPacked, c *perf.Cost) {
			for i := 0; i < d; i++ {
				h.Set(i, i, h.At(i, i)+opts.Ridge)
			}
		},
		Eval:     globalValue,
		StepEval: func(w []float64, _ *perf.Cost) float64 { return globalValue(w) },
	})
}
