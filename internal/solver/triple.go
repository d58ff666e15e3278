package solver

// A least-squares solve answered from the resident triple (G, r, c)
// with no world: at b = 1 the paper's sampled pair (H_n, R_n) of Eq. 18
// is (G, r), so the whole solve is one local accelerated proximal
// gradient run on ½wᵀGw − rᵀw + c + g(w) — CA-BCD's resident Gram
// (arXiv 1612.04003), the b → 1 end of the subsampled-Newton trade-off
// (arXiv 1708.08552) — and one data pass over the P column blocks
// certifies the answer with the bits a P-rank world's data pass takes.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// tripleCheckEvery is the number of local iterations between two
// Gram-sourced gradient-map checks, each also a deadline check.
const tripleCheckEvery = 10

// SolveTriple answers the least-squares solve of (x, y) at opts on p
// ranks from the triple a p-rank solve holds, without a world:
//
//   - The triple is r's kept one, or one filled in-process from the
//     blocks Partition deals the p ranks — FullGramPacked partials
//     summed in ascending rank order, the bits a p-rank world fill
//     keeps — and offered to r.
//   - FISTA runs on ½wᵀGw − rᵀw + c + g(w) from opts.W0 (zero when nil)
//     at step min(Gamma, 1/λmax(G)). Every tripleCheckEvery iterations
//     it takes the Gram-sourced gradient-map norm at Gamma and checks
//     ctx.
//   - A W whose Gram norm meets GradMapTol, up to the engine's
//     gramMapSlack, is decided by one data pass over the p blocks, run
//     concurrently and folded in rank order: FinalObj and GradMap are,
//     bit for bit, what a p-rank world's data pass gives at W, and
//     Converged reports that GradMap meets GradMapTol.
//
// A solve that does not certify within MaxIter iterations — one
// without a positive GradMapTol never does — returns its W after
// MaxIter iterations unconverged; a done ctx returns the iterate so far
// as a partial result with ctx's error. Both carry W's data-pass
// FinalObj and a NaN GradMap. Rounds is 0; Cost is the local flops
// (fill, power iteration, iterations, data passes) with no words and no
// messages; GramFilled reports an in-process fill. Of opts only Lambda
// or Reg, Gamma, MaxIter, GradMapTol, W0, FStar and TraceName are read.
// A solve whose (d, m, p) differs from r's stamp errors. A nil r keeps
// nothing.
func SolveTriple(ctx context.Context, x *sparse.CSC, y []float64, p int, machine perf.Machine, opts Options, r *Resident) (*Result, error) {
	o := opts.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	d, m := x.Rows, x.Cols
	switch {
	case p < 1 || m != len(y):
		return nil, fmt.Errorf("solver: triple solve of %d samples, %d labels on %d ranks", m, len(y), p)
	case o.W0 != nil && len(o.W0) != d:
		return nil, fmt.Errorf("solver: W0 has %d coords, want %d", len(o.W0), d)
	}
	if gl, ok := o.Reg.(prox.GroupL2); ok {
		if err := gl.Check(d); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res := &Result{FinalRelErr: math.NaN(), GradMap: math.NaN()}
	tri, err := r.held(x, p)
	if err != nil {
		return nil, err
	}
	if tri == nil {
		tri = fillTriple(x, y, p, &res.Cost)
		res.GramFilled = true
		r.keep(tri)
	}
	s := newTripleSolve(tri, d, o, &res.Cost)

	tol := o.GradMapTol
	n := 0
	for ; ; n++ {
		if n%tripleCheckEvery == 0 || n == o.MaxIter {
			if err = ctx.Err(); err != nil {
				break
			}
			// The world's rule (nearStop): a Gram norm within gramMapSlack
			// of the stop is the data pass's to decide, so an answer whose
			// data norm meets tol certifies again from its own W.
			if tol > 0 && s.gramNorm() <= tol*(1+gramMapSlack) {
				if obj, norm := dataPass(x, y, p, s.w, o.Gamma, o.Reg, s.grad, s.tmp, &res.Cost); norm <= tol {
					res.FinalObj, res.GradMap, res.Converged = obj, norm, true
					break
				}
			}
		}
		if n == o.MaxIter {
			break
		}
		s.step()
	}
	if !res.Converged {
		res.FinalObj, _ = dataPass(x, y, p, s.w, o.Gamma, o.Reg, s.grad, s.tmp, &res.Cost)
	}
	res.W, res.Iters = s.w, n
	res.FinalRelErr = relErr(res.FinalObj, o.FStar)
	res.ModelSeconds = machine.Seconds(res.Cost)
	res.WallSeconds = time.Since(start).Seconds()
	name := o.TraceName
	if name == "" {
		name = "triple"
	}
	res.Trace = &trace.Series{Name: name, Points: []trace.Point{{Iter: n, Obj: res.FinalObj, RelErr: res.FinalRelErr,
		ModelSec: res.ModelSeconds, WallSec: res.WallSeconds}}}
	return res, err
}

// tripleSolve is the local FISTA state of SolveTriple.
type tripleSolve struct {
	g                      residentGram
	reg                    prox.Operator
	gamma, lr, t           float64
	w, wPrev, v, grad, tmp []float64
	cost                   *perf.Cost
}

// newTripleSolve starts FISTA on the triple tri at o.W0, with step
// lr = min(Gamma, 1/λmax(G)) from 30 power iterations.
func newTripleSolve(tri []float64, d int, o Options, cost *perf.Cost) *tripleSolve {
	s := &tripleSolve{reg: o.Reg, gamma: o.Gamma, lr: o.Gamma, t: 1, cost: cost,
		w: make([]float64, d), wPrev: make([]float64, d), v: make([]float64, d),
		grad: make([]float64, d), tmp: make([]float64, d)}
	s.g.view(tri, d)
	if l := EstimateQuadLipschitz(s.g.h, 30, cost); l > 0 && 1/l < s.lr {
		s.lr = 1 / l
	}
	if o.W0 != nil {
		copy(s.w, o.W0)
		copy(s.wPrev, o.W0)
	}
	return s
}

// step is one FISTA update, v = w + μ(w − wPrev) and
// w = prox(v − lr·(Gv − r)), with an adaptive momentum restart.
func (s *tripleSolve) step() {
	tNext := (1 + math.Sqrt(1+4*s.t*s.t)) / 2
	mu := (s.t - 1) / tNext
	s.t = tNext
	mat.Sub(s.v, s.w, s.wPrev, s.cost)
	mat.AddScaled(s.v, s.w, mu, s.v, s.cost)
	s.g.h.MulVec(s.grad, s.v, s.cost)
	mat.Axpy(-1, s.g.r, s.grad, s.cost)
	s.w, s.wPrev = s.wPrev, s.w
	mat.AddScaled(s.w, s.v, -s.lr, s.grad, s.cost)
	s.reg.Apply(s.w, s.w, s.lr, s.cost)
	// Gradient restart (O'Donoghue & Candès, "Adaptive restart for
	// accelerated gradient schemes", 2015): when the step undoes the
	// momentum, drop it. Parameter-free; about 3× fewer iterations on
	// the serving grids.
	var dot float64
	for i, wi := range s.w {
		dot += (s.v[i] - wi) * (wi - s.wPrev[i])
	}
	s.cost.AddFlops(int64(4 * len(s.w)))
	if dot > 0 {
		s.t = 1
	}
}

// gramNorm is the gradient-map norm at w and Gamma from ∇f = Gw − r.
func (s *tripleSolve) gramNorm() float64 {
	s.g.h.MulVec(s.grad, s.w, s.cost)
	mat.Axpy(-1, s.g.r, s.grad, s.cost)
	return gradMapNorm(s.tmp, s.w, s.grad, s.gamma, s.reg, s.cost)
}

// gradMapNorm returns ‖w − prox_γg(w − γ·grad)‖/γ, using tmp.
func gradMapNorm(tmp, w, grad []float64, gamma float64, reg prox.Operator, cost *perf.Cost) float64 {
	mat.AddScaled(tmp, w, -gamma, grad, cost)
	reg.Apply(tmp, tmp, gamma, cost)
	mat.Sub(tmp, w, tmp, cost)
	return mat.Nrm2(tmp, cost) / gamma
}

// eachBlock runs f(q) for every block q of p, q ≥ 1 on goroutines of
// their own and q = 0 on the caller, and returns when all are done.
func eachBlock(p int, f func(q int)) {
	var wg sync.WaitGroup
	for q := 1; q < p; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(q)
		}()
	}
	f(0)
	wg.Wait()
}

// fillTriple fills the triple of (x, y) on p ranks in-process: the
// triplePartial of each block Partition deals, concurrently, summed in
// ascending rank order as the fill's shared allreduce sums them. The
// block costs merge in rank order.
func fillTriple(x *sparse.CSC, y []float64, p int, cost *perf.Cost) []float64 {
	parts := make([][]float64, p)
	costs := make([]perf.Cost, p)
	eachBlock(p, func(q int) { parts[q] = triplePartial(Partition(x, y, p, q), &costs[q]) })
	tri := parts[0]
	for _, part := range parts[1:] {
		for i, v := range part {
			tri[i] += v
		}
	}
	for _, c := range costs {
		cost.Add(c)
	}
	return tri
}

// dataPass takes the exact state of w from the p column blocks of
// (x, y) as a world of p ranks takes it: each block's gradient
// X(Xᵀw − y)/m and squared residual sum (sparse.ResidualGrad, the bits
// of the engine's residual and data-source gradient), concurrently, with
// grad and the loss summed in ascending rank order like the world's
// allreduces. It returns the engine's data-pass objective loss/2m + g(w)
// and its gradient-map norm at gamma, leaving ∇f in grad.
func dataPass(x *sparse.CSC, y []float64, p int, w []float64, gamma float64, reg prox.Operator, grad, tmp []float64, cost *perf.Cost) (obj, norm float64) {
	m := x.Cols
	grads := make([][]float64, p)
	losses := make([]float64, p)
	costs := make([]perf.Cost, p)
	eachBlock(p, func(q int) {
		lo, hi := dist.BlockRange(m, p, q)
		g := make([]float64, len(w))
		losses[q] = x.ResidualGrad(g, w, y, lo, hi, &costs[q])
		mat.Scal(1/float64(m), g, &costs[q])
		grads[q] = g
	})
	copy(grad, grads[0])
	loss := losses[0]
	for q := 1; q < p; q++ {
		for i, v := range grads[q] {
			grad[i] += v
		}
		loss += losses[q]
	}
	for _, c := range costs {
		cost.Add(c)
	}
	obj = loss/(2*float64(m)) + reg.Value(w, nil)
	return obj, gradMapNorm(tmp, w, grad, gamma, reg, cost)
}
