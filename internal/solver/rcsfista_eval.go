package solver

// The engine's exact state — ∇f, the gradient-map norm and the local
// loss at the current iterate, memoised per iterate version — and two
// of its readers: the stage-A snapshot refresh and the
// instrumentation-side objective evaluation (the KKT scan reads it in
// activeset_window.go). Split from rcsfista.go, which keeps the round
// loop, the update kernel and the solvercore hooks. Each value has two
// sources, each taken one way: the data, through the one fused sweep
// (sparse.CSC.ResidualGrad, or ResidualLoss for an objective alone)
// and one collective routed through the tier policy; or the resident
// least-squares triple, a Triple without a step (triple.go) that a
// solve the path is on for fills before round 0 and reads with no
// collective.

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
// state's; its gradient-map norm decides the GradMapTol stop, so it is
// charged when that tolerance is set.
func (e *engine) refreshSnapshot() {
	copy(e.wSnap, e.wCurr)
	copy(e.fullGrad, e.exact(&e.gradEF, true))
	if tol := e.opts.GradMapTol; tol > 0 && e.ex.norm <= tol {
		e.gradMapStop = true
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
// initial screen at one iterate share one take. A take reads the
// resident Gram when the solve holds it (no collective), else one data
// pass and one d-word allreduce on the caller's error-feedback stream ef
// at the tier policy's pick, both charged. stop says the caller decides the
// GradMapTol stop on the norm: only then is the norm charged (elsewhere
// it is uncharged bookkeeping), and only then is a Gram norm in the band
// nearStop names re-taken through the data.
func (e *engine) exact(ef *solvercore.EFStream, stop bool) []float64 {
	if e.ex.ver != e.wVer {
		gram := e.tri != nil
		e.takeExact(gram, ef, stop)
		if gram && stop && e.nearStop(math.NaN(), e.ex.norm) {
			e.takeExact(false, ef, stop)
		}
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

// gramSlack is the relative band, in units of c + |F|, inside which a
// Gram objective counts as "at" the Tol threshold and is re-taken
// through the data. The two values agree within 1e-12 of that scale
// (TestGramObjectiveMatchesDataPass; ≤ 5e-15 measured), so the band
// cannot miss a stop the data pass would take.
const gramSlack = 1e-10

// gramMapSlack is the band, in units of GradMapTol, inside which a
// Gram-sourced gradient-map norm counts as "at" the stop and is re-taken
// through the data. On the golden and ls_* shapes, over chan and tcp at
// P ≤ 4, the two norms agree within 3.3e-12 of the norm itself (and the
// gradients within 8.4e-14·‖∇f‖∞; TestGramSnapshotMatchesDataPass), so
// at a tolerance equal to the norm the band is 3·10⁵ times the largest
// disagreement and a Gram norm above it cannot hide a stop the data pass
// would take. A miss would only delay the stop by an epoch: any Gram
// norm inside the band is re-taken, so no stop is ever the Gram's.
const gramMapSlack = 1e-6

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
// words, and takes no step. The fill is billed when the algorithm reads
// the triple — under variance reduction, whose snapshots take ∇f from
// it — and otherwise rolled back like any instrumentation, so W, Cost
// and Rounds do not depend on the trace cadence.
func (e *engine) fillGram() {
	cost := e.c.Cost()
	saved := *cost
	e.tri = newTriple(e.c.AllreduceShared(triplePartial(e.local, cost)), e.d, e.m, e.c.Size())
	if !e.opts.VarianceReduced {
		*cost = saved
	}
}

// nearStop is the one source rule: a Gram-sourced objective f within
// gramSlack of the relative-error stop, or a Gram-sourced gradient-map
// norm within gramMapSlack of GradMapTol, sits where only a data pass may
// decide the stop, so its reader re-takes it through the data. Pass NaN
// for the value a reader does not hold.
func (e *engine) nearStop(f, norm float64) bool {
	if tol := e.opts.GradMapTol; tol > 0 && nearMapStop(norm, tol) {
		return true
	}
	tol, fs := e.rec.Tol, e.rec.FStar
	return tol > 0 && math.Abs(f-fs) <= tol*math.Abs(fs)+gramSlack*(e.tri.c+math.Abs(f))
}

// nearMapStop reports whether a Gram-sourced gradient-map norm lies
// within gramMapSlack of the GradMapTol stop tol > 0, where only a data
// pass may decide the stop; the engine's snapshot asks it (SolveTriple
// certifies with the triple's rounding bound instead, mapErr).
func nearMapStop(norm, tol float64) bool { return norm <= tol*(1+gramMapSlack) }

// evaluate computes the global objective F(wCurr) as instrumentation:
// the communication and flops are rolled back so cost accounting
// reflects only the algorithm (Section 5.1 measures error offline).
// When the solve holds the resident Gram every interior evaluation
// reads it. A final checkpoint — one after which the solve ends —
// always takes the data pass, and so does a Gram value at the Tol
// threshold, so Result.FinalObj and every stop are the data pass's
// exactly. The data pass reads the local loss an exact take left at
// this iterate, if one did.
func (e *engine) evaluate(final bool) float64 {
	if !final && e.tri != nil {
		if f := e.tri.loss(e.wCurr) + e.reg.Value(e.wCurr, nil); !e.nearStop(f, math.NaN()) {
			return f
		}
	}
	cost := e.c.Cost()
	saved := *cost
	loss := e.ex.loss
	if e.ex.ver != e.wVer || math.IsNaN(loss) {
		loss = e.local.X.ResidualLoss(e.wCurr, e.local.Y, 0, e.local.X.Cols, nil)
	}
	loss = dist.AllreduceScalarSumTier(e.c, loss, e.tierAt(1))
	*cost = saved
	return loss/(2*float64(e.m)) + e.reg.Value(e.wCurr, nil)
}

// checkpoint records a trace point and returns true when the stopping
// criterion fires; final marks a checkpoint the solve ends after
// whatever it returns (see evaluate). The evaluated objective doubles
// as the auto tier policy's stagnation signal.
func (e *engine) checkpoint(final bool) bool {
	obj := e.evaluate(final)
	e.tierProgress(obj)
	return e.rec.Checkpoint(obj)
}
