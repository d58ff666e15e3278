package solver

// The engine's stage-A snapshot refresh and the instrumentation-side
// objective evaluation, split from rcsfista.go (which keeps the round
// loop, the update kernel and the solvercore hooks). The snapshot runs
// one collective per call and routes it through the tier policy; the
// objective runs one until the resident Gram pays for itself and none
// after.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// refreshSnapshot re-centers the variance-reduction estimator at the
// current iterate: w-hat = w, full gradient by one distributed pass
// (Eq. 9 last term), momentum restart (Algorithm 3 epoch boundary).
func (e *engine) refreshSnapshot() {
	cost := e.c.Cost()
	copy(e.wSnap, e.wCurr)
	// Local partial of (1/m)(X X^T w - X y) over the local columns.
	e.local.X.MulVecT(e.scratch, e.wSnap, cost)
	mat.Axpy(-1, e.local.Y, e.scratch, cost)
	mat.Zero(e.fullGrad)
	e.local.X.MulVec(e.fullGrad, e.scratch, cost)
	mat.Scal(1/float64(e.m), e.fullGrad, cost)
	e.gradEF.Reduce(e.c, e.fullGrad, e.tierAt(len(e.fullGrad)))
	// Reference-free stopping: the exact gradient is in hand, so the
	// proximal gradient mapping norm comes for free (O(d) flops). The
	// auto tier policy reads the same norm as its tightening signal, so
	// it is also computed when auto compression is on — uncharged in
	// that case, since policy bookkeeping is not part of the algorithm.
	if e.opts.GradMapTol > 0 || e.tiers.auto {
		mcost := cost
		if e.opts.GradMapTol <= 0 {
			mcost = nil
		}
		mat.AddScaled(e.tmp, e.wSnap, -e.gamma, e.fullGrad, mcost)
		e.reg.Apply(e.tmp, e.tmp, e.gamma, mcost)
		mat.Sub(e.tmp, e.wSnap, e.tmp, mcost)
		e.gradMapNorm = mat.Nrm2(e.tmp, mcost) / e.gamma
		if e.opts.GradMapTol > 0 && e.gradMapNorm <= e.opts.GradMapTol {
			e.gradMapStop = true
		}
	}
	// Momentum restart.
	e.t = 1
	copy(e.wPrev, e.wCurr)
}

// gramSlack is the relative band, in units of c + |F|, inside which a
// Gram objective counts as "at" the Tol threshold and is re-taken
// through the data. The two values agree within 1e-12 of that scale
// (TestGramObjectiveMatchesDataPass; ≤ 5e-15 measured), so the band
// cannot miss a stop the data pass would take.
const gramSlack = 1e-10

// gramObjective is the resident least-squares objective. For least
// squares F(w) = ½wᵀGw − rᵀw + c + g(w) with G = XXᵀ/m, r = Xy/m and
// c = ‖y‖²/2m — the paper's H_n and R_n at b = 1 (Eq. 18) plus one
// scalar. Once every rank holds the same triple, an evaluation costs
// d² flops, allocates nothing and sends nothing, where a data pass
// costs ≥ 2·nnz_local flops and a scalar allreduce.
//
// The fill is bought by ski rental: the at-th evaluation, at =
// ⌈(d+3)/2⌉, fills the triple once (FullGramPacked over the local
// block, ≤ (d+3)·nnz_local flops, then one f64 AllreduceShared of
// PackedLen(d)+d+1 words) instead of taking a data pass. The at−1 data
// passes before it spent ≥ (d+1)·nnz_local, so the fill never costs
// much more than the passes already paid for. at depends only on d, so
// every rank takes the same decision with no extra collective.
type gramObjective struct {
	// at is the evaluation that fills the triple; 0 keeps the path off
	// (any CompressTier, where the auto ratchet reads the objective,
	// and ActiveSet, whose |A|-sized slots G may outgrow).
	at int
	// evals counts the data-pass evaluations.
	evals int
	// h, r, c are the replicated triple, nil h until filled. They view
	// the fill's shared allreduce result, which nothing else writes.
	h *mat.SymPacked
	r []float64
	c float64
}

// gramFillAt returns the evaluation at which a d-feature f64
// dense-slot run fills its resident Gram: ⌈(d+3)/2⌉.
func gramFillAt(d int) int { return (d + 4) / 2 }

// loss returns ½wᵀGw − rᵀw + c. Row i of the packed triangle carries
// the pairs (i, j ≥ i), so a zero w_i contributes nothing to the
// quadratic term and its row is skipped: on a sparse iterate the cost
// is nnz(w)·d, not d².
func (g *gramObjective) loss(w []float64) float64 {
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
// allreduce. Like the evaluations it replaces it is instrumentation, so
// its flops and words are rolled back.
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
// The at-th interior evaluation fills the resident Gram, and it and
// every later interior one read it. A final checkpoint — one after
// which the solve ends — always takes the data pass, and so does a Gram
// value at the Tol threshold, so Result.FinalObj and every stop are the
// data pass's exactly.
func (e *engine) evaluate(final bool) float64 {
	g := &e.gram
	if !final {
		if g.h == nil && g.evals+1 == g.at {
			e.fillGram()
		}
		if g.h != nil {
			if f := g.loss(e.wCurr) + e.reg.Value(e.wCurr, nil); !e.nearTol(f) {
				return f
			}
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
	g.evals++
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
