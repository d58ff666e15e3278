package solver

// The least-squares triple (G, r, c) — the one type that lays it out
// and computes Gw − r and ½wᵀGw − rᵀw + c from it, for the engine's
// resident copy and for solves with no world — and the solve answered
// from it: at b = 1 the paper's sampled pair (H_n, R_n) of Eq. 18 is
// (G, r), so the whole solve is Algorithm 2's deterministic FISTA on
// ½wᵀGw − rᵀw + c + g(w) at the step 1/λmax(G) — CA-BCD's resident Gram
// (arXiv 1612.04003), the b → 1 end of the subsampled-Newton trade-off
// (arXiv 1708.08552). The triple certifies the answer too: an a-priori
// rounding-error bound (Higham, "Accuracy and Stability of Numerical
// Algorithms", ch. 3), derived from the real operation order of the
// fill and of Gw − r, caps how far the computed gradient-map norm can
// sit from the exact one, so after the fill the solve — served, or a
// world's — never reads the data.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// tripleCheckEvery is the number of local iterations between two
// Gram-sourced gradient-map checks, each also a deadline check.
const tripleCheckEvery = 10

// Triple is the least-squares triple of one (data, P): the packed
// G = XXᵀ/m, then r = Xy/m, then c = ‖y‖²/2m, with the bits a P-rank
// world fill's shared allreduce sums. For least squares
// F(w) = ½wᵀGw − rᵀw + c + g(w) and ∇f(w) = Gw − r — the paper's H_n
// and R_n at b = 1 (Eq. 18) plus one scalar — so once the triple is
// held an objective or an exact gradient costs O(d²) flops, allocates
// nothing and sends nothing, where a data pass costs ≥ 2·nnz flops and
// an allreduce. It depends on neither λ, the regularizer, w nor a
// tolerance, so one Triple answers every least-squares solve of its
// data on P ranks. Both fills give it the inputs of its rounding bound
// (boundInputs): FillTriple adds its step (prepare), a world solve,
// which runs at its own Options.Gamma, fills its own before round 0
// without one (engine.fillGram). Nothing writes either after, so
// concurrent solves read it without copies.
type Triple struct {
	m, p int
	// g, r and c view vals, the fill's allreduce payload.
	g    mat.SymPacked
	r    []float64
	c    float64
	vals []float64
	// step is FISTA's 1/L, L ≥ λmax(G) (lipschitzBound), which prepare
	// sets and a world's triple, stepping at Options.Gamma, lacks; s
	// holds √G_ii and sNorm ‖s‖, the inputs of the rounding bound, which
	// every triple has.
	step  float64
	s     []float64
	sNorm float64
}

// newTriple views the d-dimensional triple of m samples on p ranks in
// vals: the packed G, then r, then c.
func newTriple(vals []float64, d, m, p int) *Triple {
	pl := mat.PackedLen(d)
	return &Triple{m: m, p: p, g: mat.SymPacked{N: d, Data: vals[:pl]}, r: vals[pl : pl+d], c: vals[pl+d], vals: vals}
}

// Step reports the triple's FISTA step 1/L, where L bounds λmax(G)
// from above (lipschitzBound).
func (t *Triple) Step() float64 { return t.step }

// Bytes reports the memory the triple's values hold.
func (t *Triple) Bytes() int64 { return 8 * int64(len(t.vals)) }

// grad writes ∇f(w) = Gw − r into dst. Gw is the support-aware
// product, which reads only the columns of G where w is nonzero — on a
// soft-thresholded iterate a few of d — and is MulVec's bits for a
// finite G. It keeps no scratch, so concurrent fits share the triple.
// The cost bills the dense 2d² + d flops on purpose: that is Table 1's
// count for an inner step, and the kernel's measured time is for the
// engine's stage clock to show (ROADMAP item 1), not the model.
func (t *Triple) grad(dst, w []float64, cost *perf.Cost) {
	t.g.MulVecSparse(dst, w, cost)
	mat.Axpy(-1, t.r, dst, cost)
}

// loss returns f(w) = ½wᵀGw − rᵀw + c. Row i of the packed triangle
// carries the pairs (i, j ≥ i), so a zero w_i contributes nothing to
// the quadratic term and its row is skipped: on a sparse iterate the
// cost is nnz(w)·d, not d².
func (t *Triple) loss(w []float64) float64 {
	n := t.g.N
	var quad, lin float64
	base := 0
	for i, wi := range w {
		tail := t.g.Data[base : base+n-i]
		base += n - i
		lin += t.r[i] * wi
		if wi == 0 {
			continue
		}
		var off float64
		for jj := 1; jj < len(tail); jj++ {
			off += tail[jj] * w[i+jj]
		}
		quad += wi * (tail[0]*wi + 2*off)
	}
	return quad/2 - lin + t.c
}

// triplePartial returns one block's share of the least-squares triple:
// its G, r and c summands at scale 1/m, the fill's allreduce payload.
// Summed over the blocks in ascending rank order, the shares are the
// triple. The fill is FullGramPacked over the block, ≤ (d+3)·nnz
// flops.
func triplePartial(local LocalData, cost *perf.Cost) []float64 {
	d := local.X.Rows
	scale := 1 / float64(local.MGlobal)
	part := newTriple(make([]float64, mat.PackedLen(d)+d+1), d, 0, 0) // a share, laid out as a triple
	sparse.FullGramPacked(local.X, &part.g, part.r, local.Y, scale, cost)
	var yy float64
	for _, v := range local.Y {
		yy += v * v
	}
	part.vals[len(part.vals)-1] = yy * scale / 2
	return part.vals
}

// FillTriple fills the triple of (x, y) on p ranks in-process: the
// triplePartial of each block Partition deals, folded in rank order
// (foldBlocks) as the fill's shared allreduce sums them; then prepare.
// The fill's flops and prepare's go to cost.
func FillTriple(x *sparse.CSC, y []float64, p int, cost *perf.Cost) *Triple {
	if p < 1 || x.Cols != len(y) {
		panic(fmt.Sprintf("solver: triple of %d samples, %d labels on %d ranks", x.Cols, len(y), p))
	}
	vals := foldBlocks(p, cost, func(q int, c *perf.Cost) []float64 { return triplePartial(Partition(x, y, p, q), c) })
	t := newTriple(vals, x.Rows, x.Cols, p)
	t.prepare(cost)
	return t
}

// prepare takes, once, the triple's step from lipschitzBound and the
// inputs of its rounding bound.
func (t *Triple) prepare(cost *perf.Cost) {
	t.step = 1
	// A zero G (all-zero data) takes any step; 1 stands in.
	if l := lipschitzBound(&t.g, cost); l > 0 {
		t.step = 1 / l
	}
	t.boundInputs(cost)
}

// boundInputs takes, once, the O(d) inputs of the rounding bound:
// s_i = √G_ii and ‖s‖.
func (t *Triple) boundInputs(cost *perf.Cost) {
	t.s = make([]float64, t.g.N)
	for i := range t.s {
		t.s[i] = math.Sqrt(t.g.RowTail(i)[0])
	}
	t.sNorm = mat.Nrm2(t.s, cost)
}

// The power iteration of lipschitzBound stops once its residual is
// tripleStepTol of its Rayleigh quotient, or after tripleStepMaxIter
// iterations.
const (
	tripleStepTol     = 1e-4
	tripleStepMaxIter = 1000
)

// lipschitzBound returns L = ρ + ‖Gv − ρv‖ for the power iterate v of
// G — unit, from the all-ones direction — and its Rayleigh quotient
// ρ = vᵀGv, taken once the residual meets tripleStepTol·ρ or after
// tripleStepMaxIter iterations. L bounds λmax(G) from above as soon as
// v keeps half its weight a² on G's top eigenspace: with S = λmax − ρ,
// Cauchy–Schwarz gives ‖Gv − ρv‖² ≥ S²·a²/(1 − a²) ≥ S², and the power
// iteration raises a² towards 1 geometrically. Stopped on the
// tolerance, L ≤ (1 + tripleStepTol)·λmax, so the step 1/L is within
// that share of FISTA's 1/λmax.
func lipschitzBound(g *mat.SymPacked, cost *perf.Cost) float64 {
	d := g.N
	v, gv, res := make([]float64, d), make([]float64, d), make([]float64, d)
	mat.Fill(v, 1/math.Sqrt(float64(d)))
	for it := 0; ; it++ {
		g.MulVec(gv, v, cost)
		rho := mat.Dot(v, gv, cost)
		mat.AddScaled(res, gv, -rho, v, cost)
		if r := mat.Nrm2(res, cost); r <= tripleStepTol*rho || it == tripleStepMaxIter {
			return rho + r
		}
		n := mat.Nrm2(gv, cost)
		if n == 0 {
			return 0
		}
		for i, x := range gv {
			v[i] = x / n
		}
		cost.AddFlops(int64(d))
	}
}

// SolveTriple answers the least-squares solve at opts from tri, the
// triple FillTriple filled for its data, without a world and without
// reading the data:
//
//   - FISTA runs on ½wᵀGw − rᵀw + c + g(w) from opts.W0 (zero when nil)
//     at tri's step. Every tripleCheckEvery iterations it takes the
//     Gram-sourced gradient-map norm at that step and checks ctx.
//   - A W whose Gram norm plus tri's rounding bound at W meets
//     GradMapTol certifies (Triple.certify, the world engine's stop
//     too): the exact gradient-map norm at W is at most that sum, which
//     GradMap reports, and Converged is set.
//
// A solve that does not certify within MaxIter iterations — one
// without a positive GradMapTol never does — returns its W after
// MaxIter iterations unconverged; a done ctx returns the iterate so far
// as a partial result with ctx's error. Both carry a NaN GradMap. Every
// exit's FinalObj is tri's loss at W plus g(W). Rounds is 0; Cost is
// the local flops of the iterations and the bound, with no words and no
// messages: tri's fill is its filler's to bill. Each Gw − r is billed
// Table 1's dense 2d² + d flops on purpose, however few columns its
// iterate's support reads (Triple.grad): the saving is wall-clock
// time, a measured stage clock's to show, not the model's. Of opts
// only Lambda or Reg, MaxIter, GradMapTol, W0, FStar and TraceName are
// read.
func SolveTriple(ctx context.Context, tri *Triple, machine perf.Machine, opts Options) (*Result, error) {
	o := opts.withDefaults()
	d := tri.g.N
	switch {
	case o.W0 != nil && len(o.W0) != d:
		return nil, fmt.Errorf("solver: W0 has %d coords, want %d", len(o.W0), d)
	case o.Lambda < 0:
		return nil, errors.New("solver: Lambda must be non-negative")
	case o.MaxIter <= 0:
		return nil, errors.New("solver: MaxIter must be positive")
	}
	if gl, ok := o.Reg.(prox.GroupL2); ok {
		if err := gl.Check(d); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res := &Result{FinalRelErr: math.NaN(), GradMap: math.NaN()}
	s := newTripleSolve(tri, o, &res.Cost)

	tol := o.GradMapTol
	var err error
	n := 0
	for ; ; n++ {
		if n%tripleCheckEvery == 0 || n == o.MaxIter {
			if err = ctx.Err(); err != nil {
				break
			}
			if tol > 0 {
				norm := s.gramNorm()
				if cert, ok := tri.certify(s.w, s.grad, norm, s.lr, tol, o.Reg, s.cost); ok {
					res.GradMap, res.Converged = cert, true
					break
				}
			}
		}
		if n == o.MaxIter {
			break
		}
		s.step()
	}
	res.FinalObj = tri.loss(s.w) + o.Reg.Value(s.w, &res.Cost)
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
	tri                    *Triple
	reg                    prox.Operator
	lr, t                  float64
	w, wPrev, v, grad, tmp []float64
	cost                   *perf.Cost
}

// newTripleSolve starts FISTA on tri at o.W0, with tri's step.
func newTripleSolve(tri *Triple, o Options, cost *perf.Cost) *tripleSolve {
	d := tri.g.N
	s := &tripleSolve{tri: tri, reg: o.Reg, lr: tri.step, t: 1, cost: cost,
		w: make([]float64, d), wPrev: make([]float64, d), v: make([]float64, d),
		grad: make([]float64, d), tmp: make([]float64, d)}
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
	s.tri.grad(s.grad, s.v, s.cost)
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

// gramNorm is the gradient-map norm at w and the step from ∇f = Gw − r.
func (s *tripleSolve) gramNorm() float64 {
	s.tri.grad(s.grad, s.w, s.cost)
	return gradMapNorm(s.tmp, s.w, s.grad, s.lr, s.reg, s.cost)
}

// gradMapNorm returns ‖w − prox_γg(w − γ·grad)‖/γ, using tmp.
func gradMapNorm(tmp, w, grad []float64, gamma float64, reg prox.Operator, cost *perf.Cost) float64 {
	mat.AddScaled(tmp, w, -gamma, grad, cost)
	reg.Apply(tmp, tmp, gamma, cost)
	mat.Sub(tmp, w, tmp, cost)
	return mat.Nrm2(tmp, cost) / gamma
}

// foldBlocks runs part(q, cost_q) for every block q of p — q ≥ 1 on
// goroutines of their own, q = 0 on the caller — and sums the parts in
// ascending rank order into the first, as a p-rank world's allreduce
// sums them; the block costs merge into cost. It returns the sum.
func foldBlocks(p int, cost *perf.Cost, part func(q int, c *perf.Cost) []float64) []float64 {
	parts := make([][]float64, p)
	costs := make([]perf.Cost, p)
	var wg sync.WaitGroup
	for q := 1; q < p; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[q] = part(q, &costs[q])
		}()
	}
	parts[0] = part(0, &costs[0])
	wg.Wait()
	sum := parts[0]
	for q := 1; q < p; q++ {
		for i, v := range parts[q] {
			sum[i] += v
		}
	}
	for _, c := range costs {
		cost.Add(c)
	}
	return sum
}
