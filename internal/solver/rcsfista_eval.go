package solver

// The engine's exact state — ∇f, the gradient-map norm and the local
// loss at the current iterate, memoised per iterate version — and two
// of its readers: the stage-A snapshot refresh with its GradMapTol stop
// and the instrumentation-side objective evaluation (the KKT scan reads
// it in activeset_window.go). Split from rcsfista.go, which keeps the
// round loop, the update kernel and the solvercore hooks. A solve takes
// every value from one source. One that holds the least-squares triple
// (holdsTriple) fills it before round 0 — a Triple with the rounding
// bound's inputs and no step (triple.go) — and then reads only it, with
// no collective: ∇f = Gw − r, every objective, and a GradMapTol stop
// certified as SolveTriple certifies one (Triple.certify). Every other
// solve reads the data, through the one fused sweep
// (sparse.CSC.ResidualGrad, or ResidualLoss for an objective alone) and
// one collective routed through the tier policy.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// start readies the solve before round 0: the resident triple filled
// when its path is on, then under variance reduction the first
// snapshot.
func (e *engine) start() {
	if e.fillsTri {
		e.fillGram()
	}
	if e.opts.VarianceReduced {
		e.refreshSnapshot()
	}
}

// refreshSnapshot re-centers the variance-reduction estimator at the
// current iterate: w-hat = w, full gradient (Eq. 9 last term), momentum
// restart (Algorithm 3 epoch boundary). The gradient is the exact
// state's; its gradient-map norm, charged when GradMapTol is set,
// decides that stop. From the data the norm is the verdict and the
// reported GradMap. Holding the triple, the solve certifies as
// SolveTriple does, at its own step (Triple.certify): the Gram norm
// plus the rounding bound, whose O(d) flops are bookkeeping like the
// objective's and billed nothing.
func (e *engine) refreshSnapshot() {
	copy(e.wSnap, e.wCurr)
	copy(e.fullGrad, e.exact(&e.gradEF, true))
	tol, cert := e.opts.GradMapTol, e.ex.norm
	ok := tol > 0 && cert <= tol
	if e.tri != nil {
		cert, ok = e.tri.certify(e.wCurr, e.fullGrad, cert, e.gamma, tol, e.reg, nil)
	}
	if ok {
		e.gradMapStop, e.gradMap = true, cert
	}
	// Momentum restart.
	e.t = 1
	copy(e.wPrev, e.wCurr)
}

// exactState is the exact state of the iterate at one version: ∇f, the
// proximal gradient-map norm, and — when it came from the data — this
// rank's squared residual sum.
type exactState struct {
	// ver is the iterate version the state describes, -1 before the
	// first take.
	ver  int
	grad []float64
	// norm is ‖w − prox_γg(w − γ∇f)‖/γ, O(d) flops: the GradMapTol stop,
	// Result.GradMap and the auto tier policy's tightening signal, +Inf
	// before the first take (no signal yet: the policy stays loose).
	norm float64
	// loss is Σ(x_jᵀw − y_j)² over this rank's block, the sum the data
	// take's sweep returns, NaN when the take read the triple. A
	// data-pass objective at ver reads it instead of sweeping again.
	loss float64
}

// exact returns ∇f at wCurr, with its gradient-map norm in ex.norm,
// memoised per iterate version (wVer): a VR snapshot, a KKT scan and the
// initial screen at one iterate share one take. A take reads the triple
// when the solve holds it (no collective), else one data pass and one
// d-word allreduce on the caller's error-feedback stream ef at the tier
// policy's pick, both charged. stop says the caller decides the
// GradMapTol stop on the norm: only then is the norm charged (elsewhere
// it is uncharged bookkeeping).
func (e *engine) exact(ef *solvercore.EFStream, stop bool) []float64 {
	if e.ex.ver != e.wVer {
		e.takeExact(e.tri != nil, ef, stop)
		e.ex.ver = e.wVer
	}
	return e.ex.grad
}

// takeExact computes the exact state of wCurr from one source: the
// resident triple, ∇f = Gw − r at 2d² + d flops; or the data, ∇f =
// X(Xᵀw − y)/m from one sweep over the local block (ResidualGrad, which
// leaves the local loss in ex.loss), reduced on ef.
func (e *engine) takeExact(gram bool, ef *solvercore.EFStream, stop bool) {
	cost, g := e.c.Cost(), e.ex.grad
	if gram {
		e.tri.grad(g, e.wCurr, cost)
		e.ex.loss = math.NaN()
	} else {
		mat.Zero(g)
		e.ex.loss = e.local.X.ResidualGrad(g, e.wCurr, e.local.Y, 0, e.local.X.Cols, cost)
		mat.Scal(1/float64(e.m), g, cost)
		ef.Reduce(e.c, g, e.tierAt(len(g)))
	}
	if !stop || e.opts.GradMapTol <= 0 {
		cost = nil
	}
	e.ex.norm = gradMapNorm(e.tmp, e.wCurr, g, e.gamma, e.reg, cost)
}

// holdsTriple is the one rule for which world solves fill the
// least-squares triple before round 0: none under ActiveSet (G may
// outgrow its |A|-sized slots) or a CompressTier (the snapshot gradient
// crosses the wire quantized; the auto ratchet reads the objective) but
// auto on one rank, which never leaves f64.
func holdsTriple(o *Options, p int) bool {
	t, err := parseTierConfig(o.CompressTier)
	return err == nil && !o.ActiveSet && (!t.on || t.auto && p == 1)
}

// fillGram builds the replicated triple from this rank's block
// (triplePartial) and one f64 AllreduceShared of PackedLen(d)+d+1
// words, then its rounding bound's O(d) inputs (boundInputs, unbilled
// like the certificate they feed). It takes no step: the solve steps at
// Options.Gamma, and lipschitzBound's power iteration would add d² work
// per iteration. The fill is billed when the algorithm reads the triple
// — under variance reduction, whose snapshots take ∇f from it — and
// otherwise rolled back like any instrumentation, so W, Cost and Rounds
// do not depend on the trace cadence.
func (e *engine) fillGram() {
	cost := e.c.Cost()
	saved := *cost
	e.tri = newTriple(e.c.AllreduceShared(triplePartial(e.local, cost)), e.d, e.m, e.c.Size())
	if !e.opts.VarianceReduced {
		*cost = saved
	}
	e.tri.boundInputs(nil)
}

// evaluate computes the global objective F(wCurr) as instrumentation:
// the communication and flops are rolled back so cost accounting
// reflects only the algorithm (Section 5.1 measures error offline).
// A solve that holds the triple reads every objective from it, the Tol
// stop's and Result.FinalObj included, with no collective and no band:
// F* is itself a reference solve's estimate, so the Tol stop was never
// a certificate a data pass could make exact. Any other solve takes a
// data pass, which reads the local loss an exact take left at this
// iterate, if one did, and sums it on the engine's one-word buffer.
func (e *engine) evaluate() float64 {
	if e.tri != nil {
		return e.tri.loss(e.wCurr) + e.reg.Value(e.wCurr, nil)
	}
	cost := e.c.Cost()
	saved := *cost
	loss := e.ex.loss
	if e.ex.ver != e.wVer {
		loss = e.local.X.ResidualLoss(e.wCurr, e.local.Y, 0, e.local.X.Cols, nil)
	}
	e.sum[0] = loss
	loss = dist.AllreduceScalarSumTier(e.c, e.sum[:], e.tierAt(1))
	*cost = saved
	return loss/(2*float64(e.m)) + e.reg.Value(e.wCurr, nil)
}

// checkpoint records a trace point and returns true when the stopping
// criterion fires. The evaluated objective doubles as the auto tier
// policy's stagnation signal.
func (e *engine) checkpoint() bool {
	obj := e.evaluate()
	e.tierProgress(obj)
	return e.rec.Checkpoint(obj)
}
