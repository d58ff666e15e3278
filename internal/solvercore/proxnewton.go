package solvercore

import (
	"context"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// PNSpec wires one Proximal Newton solve (Algorithm 1) onto the
// shared round loop: one round = one outer iteration — fill the
// [d gradient | d(d+1)/2 packed Hessian] payload, exchange it, solve
// the Eq. 19 subproblem, damp the step, checkpoint. The solver.
// ProxNewton (least squares, sequential) and erm.DistProxNewton
// (general loss, distributed) front ends are both thin adapters over
// this one engine; their historical behavioral differences — sampling
// stream, cost charging of objective evaluations, failed-line-search
// policy, step-norm stop — are the closure hooks and flags below, so
// both remain bit-identical to their pre-refactor implementations.
type PNSpec struct {
	// Comm is the communicator (Spec.Comm), nil for sequential solves.
	// Data movement and the cancellation vote go through Exchange.
	Comm dist.Comm
	// Rec carries cost, counters, trace, Tol/FStar.
	Rec *Recorder

	// D is the feature dimension; W the caller-owned iterate buffer,
	// returned (not cloned) in the Result.
	D int
	W []float64

	// OuterIter bounds the outer (Newton) iterations; InnerIter is the
	// per-subproblem inner solver budget.
	OuterIter, InnerIter int
	// Reg is the non-smooth term g. Inner solves the subproblem; nil
	// estimates the quadratic Lipschitz constant and uses FISTA.
	Reg   prox.Operator
	Inner QuadInner
	// LineSearch enables backtracking on the damping factor.
	// ZeroStepOnFail keeps w unchanged when no tested step decreased F
	// (the sequential solver's policy); otherwise the last tiny trial
	// step is applied anyway (the erm solver's policy, which also
	// leaves the cached objective value stale).
	LineSearch, ZeroStepOnFail bool
	// StepTol stops when ||dw||_inf * step falls below it; 0 disables.
	StepTol float64

	// Exchange combines the payload across ranks (Identity for
	// sequential, segmented per-vector allreduces for distributed).
	Exchange Exchanger
	// FillGradient writes the (local partial of the) exact gradient of
	// the smooth part at w.
	FillGradient func(grad, w []float64, cost *perf.Cost)
	// FillHessian adds the (local partial of the) sampled Hessian at w
	// for outer iteration outer into h, which arrives zeroed.
	FillHessian func(h *mat.SymPacked, w []float64, outer int, cost *perf.Cost)
	// PostExchange runs on the combined Hessian before the subproblem
	// solve (e.g. ridge damping); nil skips.
	PostExchange func(h *mat.SymPacked, cost *perf.Cost)
	// Eval returns F(w) as instrumentation for checkpoints (uncharged).
	// StepEval returns F(w) for step acceptance, charging (or rolling
	// back) per the variant's historical accounting.
	Eval     func(w []float64) float64
	StepEval func(w []float64, cost *perf.Cost) float64
}

// RunProxNewton runs the unified Proximal Newton engine to completion
// or cancellation (see Loop for the cancellation contract; the Result
// is well-formed either way).
func RunProxNewton(ctx context.Context, spec PNSpec) (*Result, error) {
	e := &pnEngine{
		spec: spec,
		rec:  spec.Rec,
		hLen: mat.PackedLen(spec.D),
		w:    spec.W,
		dw:   make([]float64, spec.D),
		cand: make([]float64, spec.D),
	}
	e.rec.CheckpointAt(0, 0, spec.Eval(e.w))
	e.fw = spec.StepEval(e.w, e.rec.Cost)
	err := Loop(Spec{
		Ctx:      ctx,
		Comm:     spec.Comm,
		Rec:      e.rec,
		Fill:     e,
		Exchange: spec.Exchange,
		Pass:     e,
		Stop:     e,
	})
	return e.rec.Finish(e.w), err
}

// pnEngine is the BatchFiller, InnerPass and StopPolicy of one
// Proximal Newton solve.
type pnEngine struct {
	spec PNSpec
	rec  *Recorder
	hLen int

	w, dw, cand []float64
	// fw is the cached objective value the line search compares
	// against (monotone acceptance).
	fw float64
	// fista is the lazily created default inner solver (spec.Inner nil),
	// reused across rounds so its work vectors allocate once.
	fista *FISTAInner
}

// BatchLen is the payload length: d gradient words then the packed
// Hessian.
func (e *pnEngine) BatchLen() int { return e.spec.D + e.hLen }

// Fill computes the round's local payload: sampled Hessian partial and
// exact-gradient partial at the current iterate, returning what the
// hooks charged.
func (e *pnEngine) Fill(buf []float64) perf.Cost {
	var cost perf.Cost
	outer := e.rec.Rounds + 1
	h := mat.SymPackedOf(e.spec.D, buf[e.spec.D:])
	h.Zero()
	e.spec.FillHessian(h, e.w, outer, &cost)
	e.spec.FillGradient(buf[:e.spec.D], e.w, &cost)
	return cost
}

// Process consumes the combined payload: subproblem solve, damped
// (optionally line-searched) step, checkpoint, stop checks.
func (e *pnEngine) Process(shared []float64) bool {
	spec, cost := &e.spec, e.rec.Cost
	outer := e.rec.Rounds
	grad := shared[:spec.D]
	h := mat.SymPackedOf(spec.D, shared[spec.D:])
	if spec.PostExchange != nil {
		spec.PostExchange(h, cost)
	}

	// Subproblem (Eq. 19) solved from the exact gradient anchor,
	// warm-started at w.
	quad := NewSubproblem(h, e.w, grad, cost)
	inner := spec.Inner
	if inner == nil {
		l := EstimateQuadLipschitz(h, 20, cost)
		if l <= 0 {
			// Zero curvature: w is already a minimizer direction-wise.
			// The aborted round is not counted, matching the historical
			// loop break before the counters were advanced.
			e.rec.Rounds--
			return true
		}
		if e.fista == nil {
			e.fista = &FISTAInner{}
		}
		e.fista.Gamma = 1 / l
		inner = e.fista
	}
	z := inner.Solve(quad, spec.Reg, e.w, spec.InnerIter, cost)

	// Damped update with optional backtracking on F.
	mat.Sub(e.dw, z, e.w, cost)
	step := 1.0
	if spec.LineSearch {
		accepted := false
		for trial := 0; trial < 30; trial++ {
			mat.AddScaled(e.cand, e.w, step, e.dw, cost)
			if f := spec.StepEval(e.cand, cost); f <= e.fw {
				e.fw = f
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted && spec.ZeroStepOnFail {
			// No tested step decreased F (e.g. a badly subsampled
			// Hessian made dw an ascent direction): keep w, draw a
			// fresh Hessian next iteration.
			step = 0
		}
	}
	mat.Axpy(step, e.dw, e.w, cost)
	if !spec.LineSearch {
		e.fw = spec.StepEval(e.w, cost)
	}

	e.rec.Iter = outer
	if e.rec.CheckpointAt(outer, outer, spec.Eval(e.w)) {
		e.rec.Converged = true
		return true
	}
	if spec.StepTol > 0 && mat.NrmInf(e.dw)*step <= spec.StepTol {
		e.rec.Converged = e.rec.FinalRelErr <= e.rec.Tol || math.IsNaN(e.rec.FinalRelErr)
		return true
	}
	return false
}

// OnSkip stops the solve: the PN exchangers never lose a round, so a
// nil payload means the configuration is broken, not transient.
func (e *pnEngine) OnSkip() bool { return true }

// Done gates round starts on the outer iteration budget.
func (e *pnEngine) Done() bool { return e.rec.Rounds >= e.spec.OuterIter }
