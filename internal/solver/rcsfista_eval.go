package solver

// The engine's stage-A snapshot refresh and the instrumentation-side
// objective evaluation, split from rcsfista.go (which keeps the round
// loop, the update kernel and the solvercore hooks). Both read the
// resident least-squares Gram once stage B has sampled as many columns
// as its fill touches; before that a snapshot runs one collective,
// routed through the tier policy, and so does an objective.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// refreshSnapshot re-centers the variance-reduction estimator at the
// current iterate: w-hat = w, full gradient (Eq. 9 last term), momentum
// restart (Algorithm 3 epoch boundary). The gradient comes from the
// resident Gram once it is ready, else from one distributed data pass.
// A Gram-sourced gradient-map norm within gramMapSlack of GradMapTol is
// re-taken through the data, so every stop, and Result.GradMap, is the
// data pass's.
func (e *engine) refreshSnapshot() {
	copy(e.wSnap, e.wCurr)
	fromGram := e.gramReady()
	if fromGram {
		e.gramGrad()
	} else {
		e.dataGrad()
	}
	// Reference-free stopping: the exact gradient is in hand, so the
	// proximal gradient mapping norm comes for free (O(d) flops). The
	// auto tier policy reads the same norm as its tightening signal, so
	// it is also computed when auto compression is on — uncharged in
	// that case, since policy bookkeeping is not part of the algorithm.
	if tol := e.opts.GradMapTol; tol > 0 || e.tiers.auto {
		e.gradMap()
		if fromGram && tol > 0 && e.gradMapNorm <= tol*(1+gramMapSlack) {
			e.dataGrad()
			e.gradMap()
		}
		if tol > 0 && e.gradMapNorm <= tol {
			e.gradMapStop = true
		}
	}
	// Momentum restart.
	e.t = 1
	copy(e.wPrev, e.wCurr)
}

// dataGrad sets fullGrad = (1/m)(X Xᵀŵ − X y) by one pass over the
// local columns and one d-word allreduce at the tier policy's pick.
func (e *engine) dataGrad() {
	cost := e.c.Cost()
	e.local.X.MulVecT(e.scratch, e.wSnap, cost)
	mat.Axpy(-1, e.local.Y, e.scratch, cost)
	mat.Zero(e.fullGrad)
	e.local.X.MulVec(e.fullGrad, e.scratch, cost)
	mat.Scal(1/float64(e.m), e.fullGrad, cost)
	e.gradEF.Reduce(e.c, e.fullGrad, e.tierAt(len(e.fullGrad)))
}

// gramGrad sets fullGrad = Gŵ − r from the resident triple: 2d² + d
// flops and no collective. The first call bills the fill to the rank,
// filling the triple first if no objective has.
func (e *engine) gramGrad() {
	g := &e.gram
	cost := e.c.Cost()
	if g.h == nil {
		e.fillGram()
	}
	if !g.billed {
		cost.Add(g.bill)
		g.billed = true
	}
	g.h.MulVec(e.fullGrad, e.wSnap, cost)
	mat.Axpy(-1, g.r, e.fullGrad, cost)
}

// gradMap sets gradMapNorm = ‖ŵ − prox_γg(ŵ − γ∇f)‖/γ from fullGrad,
// charged only when GradMapTol asks for it.
func (e *engine) gradMap() {
	cost := e.c.Cost()
	if e.opts.GradMapTol <= 0 {
		cost = nil
	}
	mat.AddScaled(e.tmp, e.wSnap, -e.gamma, e.fullGrad, cost)
	e.reg.Apply(e.tmp, e.tmp, e.gamma, cost)
	mat.Sub(e.tmp, e.wSnap, e.tmp, cost)
	e.gradMapNorm = mat.Nrm2(e.tmp, cost) / e.gamma
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
// or a snapshot gradient costs O(d²) flops, allocates nothing and sends
// nothing, where a data pass costs ≥ 2·nnz_local flops and an
// allreduce.
//
// The fill (FullGramPacked over the local block, ≤ (d+3)·nnz_local
// flops, then one f64 AllreduceShared of PackedLen(d)+d+1 words) waits
// until stage B has sampled as many columns as it touches (gramReady),
// so it never costs more than the Hessian sampling already spent. Its
// bill goes to the rank once, at the first snapshot that reads the
// triple, whether that snapshot or an earlier objective filled it: W,
// Cost and Rounds do not depend on the trace cadence.
type residentGram struct {
	// on gates the path: off under ActiveSet, whose |A|-sized slots G
	// may outgrow, and under any CompressTier — where the snapshot
	// gradient crosses the wire quantized and the auto ratchet reads the
	// objective — except auto on one rank, which never leaves f64.
	on bool
	// h, r, c are the replicated triple, nil h until filled. They view
	// the fill's shared allreduce result, which nothing else writes.
	h *mat.SymPacked
	r []float64
	c float64
	// bill is the fill's cost; billed is set once a snapshot charged it.
	bill   perf.Cost
	billed bool
}

// gramReady reports whether the resident triple answers: the path is
// on and stage B has sampled (Iter/S)·m̄ ≥ m columns. Both sides are
// pure functions of the options and the processed updates, identical
// on every rank and on the blocking and pipelined loops, so the ranks
// fill in lockstep with no extra collective.
func (e *engine) gramReady() bool {
	return e.gram.on && (e.rec.Iter/e.opts.S)*e.mbar >= e.m
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

// fillGram builds the replicated triple from this rank's block and one
// allreduce. Its flops and words are rolled back into g.bill, which the
// first snapshot that reads the triple charges (gramGrad).
func (e *engine) fillGram() {
	cost := e.c.Cost()
	saved := *cost
	g := &e.gram
	d, pl := e.d, mat.PackedLen(e.d)
	scale := 1 / float64(e.m)
	local := make([]float64, pl+d+1)
	sparse.FullGramPacked(e.local.X, &mat.SymPacked{N: d, Data: local[:pl]}, local[pl:pl+d], e.local.Y, scale, cost)
	var yy float64
	for _, v := range e.local.Y {
		yy += v * v
	}
	local[pl+d] = yy * scale / 2
	shared := e.c.AllreduceShared(local)
	g.h = &mat.SymPacked{N: d, Data: shared[:pl]}
	g.r, g.c = shared[pl:pl+d], shared[pl+d]
	g.bill = cost.Sub(saved)
	*cost = saved
}

// nearTol reports whether the Gram value f lies within gramSlack of
// the relative-error stop, where only a data pass may decide it.
func (e *engine) nearTol(f float64) bool {
	tol, fs := e.rec.Tol, e.rec.FStar
	if !(tol > 0) || math.IsNaN(fs) {
		return false
	}
	return math.Abs(f-fs) <= tol*math.Abs(fs)+gramSlack*(e.gram.c+math.Abs(f))
}

// evaluate computes the global objective F(wCurr) as instrumentation:
// the communication and flops are rolled back so cost accounting
// reflects only the algorithm (Section 5.1 measures error offline).
// Once the resident Gram is ready every interior evaluation reads it,
// filling it if no snapshot has yet. A final checkpoint — one after
// which the solve ends — always takes the data pass, and so does a Gram
// value at the Tol threshold, so Result.FinalObj and every stop are the
// data pass's exactly.
func (e *engine) evaluate(final bool) float64 {
	g := &e.gram
	if !final && e.gramReady() {
		if g.h == nil {
			e.fillGram()
		}
		if f := g.loss(e.wCurr) + e.reg.Value(e.wCurr, nil); !e.nearTol(f) {
			return f
		}
	}
	cost := e.c.Cost()
	saved := *cost
	e.local.X.MulVecT(e.scratch, e.wCurr, nil)
	var loss float64
	for i, t := range e.scratch {
		res := t - e.local.Y[i]
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
