package solver

// The engine's exact state — ∇f, the gradient-map norm and the local
// residual at the current iterate, memoised per iterate version — and
// two of its readers: the stage-A snapshot refresh and the
// instrumentation-side objective evaluation (the KKT scan reads it in
// activeset_window.go). Split from rcsfista.go, which keeps the round
// loop, the update kernel and the solvercore hooks. A solve the
// resident least-squares Gram is on for holds it from round 0, and the
// state and the objective read it; any other takes one collective for
// each, routed through the tier policy.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// start readies the solve before round 0: the resident triple filled
// when its path is on, then under variance reduction the first
// snapshot.
func (e *engine) start() {
	if e.gram.on {
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
// proximal gradient-map norm, and — when it came from the data — the
// local residual Xᵀw − y left in engine.scratch.
type exactState struct {
	// ver is the iterate version grad and norm describe; resid the
	// version whose residual scratch holds. -1: none yet.
	ver, resid int
	grad       []float64
	// norm is ‖w − prox_γg(w − γ∇f)‖/γ, O(d) flops: the GradMapTol stop,
	// Result.GradMap and the auto tier policy's tightening signal, +Inf
	// before the first take (no signal yet: the policy stays loose).
	norm float64
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
		gram := e.gram.h != nil
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
// X(Xᵀw − y)/m reduced on ef.
func (e *engine) takeExact(gram bool, ef *solvercore.EFStream, stop bool) {
	cost, g := e.c.Cost(), e.ex.grad
	if gram {
		rg := &e.gram
		rg.h.MulVec(g, e.wCurr, cost)
		mat.Axpy(-1, rg.r, g, cost)
	} else {
		e.residual(cost)
		mat.Zero(g)
		e.local.X.MulVec(g, e.scratch, cost)
		mat.Scal(1/float64(e.m), g, cost)
		ef.Reduce(e.c, g, e.tierAt(len(g)))
	}
	if !stop || e.opts.GradMapTol <= 0 {
		cost = nil
	}
	e.ex.norm = gradMapNorm(e.tmp, e.wCurr, g, e.gamma, e.reg, cost)
}

// residual leaves this rank's Xᵀw − y at wCurr in scratch. It is local
// and exact under every tier, so a data-pass objective at the same
// iterate version reads it instead of taking its own pass.
func (e *engine) residual(cost *perf.Cost) {
	e.local.X.MulVecT(e.scratch, e.wCurr, cost)
	mat.Axpy(-1, e.local.Y, e.scratch, cost)
	e.ex.resid = e.wVer
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

// residentGram is the replicated least-squares triple. For least squares
// F(w) = ½wᵀGw − rᵀw + c + g(w) and ∇f(w) = Gw − r, with G = XXᵀ/m,
// r = Xy/m and c = ‖y‖²/2m — the paper's H_n and R_n at b = 1 (Eq. 18)
// plus one scalar. Once every rank holds the same triple, an objective
// or an exact gradient costs O(d²) flops, allocates nothing and sends
// nothing, where a data pass costs ≥ 2·nnz_local flops and an
// allreduce.
//
// The fill is FullGramPacked over the local block, ≤ (d+3)·nnz_local
// flops, then one f64 AllreduceShared of PackedLen(d)+d+1 words. Every
// solve the path is on for fills the triple before round 0 (start).
// The fill is billed when the algorithm reads the triple — under
// variance reduction, whose snapshots take ∇f from it — and otherwise
// rolled back like any instrumentation, so W, Cost and Rounds do not
// depend on the trace cadence. SolveTriple holds the same triple with
// no world (triple.go).
type residentGram struct {
	// on gates the path (holdsTriple).
	on bool
	// h, r, c are the replicated triple, nil h until filled. They view
	// the fill's shared allreduce result (or SolveTriple's triple),
	// which nothing writes.
	h *mat.SymPacked
	r []float64
	c float64
}

// view points the d-dimensional triple at tri: the packed G, then r,
// then c.
func (g *residentGram) view(tri []float64, d int) {
	pl := mat.PackedLen(d)
	g.h = &mat.SymPacked{N: d, Data: tri[:pl]}
	g.r, g.c = tri[pl:pl+d], tri[pl+d]
}

// loss returns ½wᵀGw − rᵀw + c. Row i of the packed triangle carries
// the pairs (i, j ≥ i), so a zero w_i contributes nothing to the
// quadratic term and its row is skipped: on a sparse iterate the cost
// is nnz(w)·d, not d².
func (g *residentGram) loss(w []float64) float64 {
	n := g.h.N
	var quad, lin float64
	base := 0
	for i, wi := range w {
		tail := g.h.Data[base : base+n-i]
		base += n - i
		lin += g.r[i] * wi
		if wi == 0 {
			continue
		}
		var off float64
		for jj := 1; jj < len(tail); jj++ {
			off += tail[jj] * w[i+jj]
		}
		quad += wi * (tail[0]*wi + 2*off)
	}
	return quad/2 - lin + g.c
}

// triplePartial returns one block's share of the least-squares triple:
// its packed G, r and c summands at scale 1/m, the fill's allreduce
// payload. Summed over the blocks in ascending rank order, the shares
// are the triple.
func triplePartial(local LocalData, cost *perf.Cost) []float64 {
	d := local.X.Rows
	pl := mat.PackedLen(d)
	scale := 1 / float64(local.MGlobal)
	part := make([]float64, pl+d+1)
	sparse.FullGramPacked(local.X, &mat.SymPacked{N: d, Data: part[:pl]}, part[pl:pl+d], local.Y, scale, cost)
	var yy float64
	for _, v := range local.Y {
		yy += v * v
	}
	part[pl+d] = yy * scale / 2
	return part
}

// fillGram builds the replicated triple from this rank's block and one
// allreduce, billed under variance reduction and rolled back otherwise
// (see residentGram).
func (e *engine) fillGram() {
	cost := e.c.Cost()
	saved := *cost
	g := &e.gram
	g.view(e.c.AllreduceShared(triplePartial(e.local, cost)), e.d)
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
	if tol := e.opts.GradMapTol; tol > 0 && norm <= tol*(1+gramMapSlack) {
		return true
	}
	tol, fs := e.rec.Tol, e.rec.FStar
	return tol > 0 && math.Abs(f-fs) <= tol*math.Abs(fs)+gramSlack*(e.gram.c+math.Abs(f))
}

// evaluate computes the global objective F(wCurr) as instrumentation:
// the communication and flops are rolled back so cost accounting
// reflects only the algorithm (Section 5.1 measures error offline).
// When the solve holds the resident Gram every interior evaluation
// reads it. A final checkpoint — one after which the solve ends —
// always takes the data pass, and so does a Gram value at the Tol
// threshold, so Result.FinalObj and every stop are the data pass's
// exactly. The data pass reads the residual an exact take
// left at this iterate, if one did.
func (e *engine) evaluate(final bool) float64 {
	g := &e.gram
	if !final && g.h != nil {
		if f := g.loss(e.wCurr) + e.reg.Value(e.wCurr, nil); !e.nearStop(f, math.NaN()) {
			return f
		}
	}
	cost := e.c.Cost()
	saved := *cost
	if e.ex.resid != e.wVer {
		e.residual(nil)
	}
	var loss float64
	for _, res := range e.scratch {
		loss += res * res
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
