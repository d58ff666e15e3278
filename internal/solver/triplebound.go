package solver

// The triple's rounding-error bound: how far the gradient Gw − r, the
// loss ½wᵀGw − rᵀw + c and the gradient-map norm that SolveTriple
// computes from the stored triple can sit from the exact values of the
// data, derived from the real operation order of the fill
// (triplePartial, foldBlocks) and of the arithmetic (Triple.grad,
// Triple.loss, gradMapNorm) with Higham's γ_n = nu/(1 − nu), u = 2⁻⁵³
// ("Accuracy and Stability of Numerical Algorithms", ch. 3): a value
// that takes n roundings carries a factor 1 + θ with |θ| ≤ γ_n, and
// (1 + γ_j)(1 + γ_k) ≤ 1 + γ_{j+k}. Underflow is ignored.
//
// Fill. Every summand of G_ij, r_i and c meets fl(1/m), the scaled
// entry and the product — three roundings — then m_q − 1 additions in
// its block and, folded in rank order, p − max(q, 1) more: at most
// kF = m_0 + p + 1 in all (fillRounds; block 0 is the largest). With
// s_i = √G_ii, Cauchy–Schwarz on Σ_k |x_ik x_jk|/m and Σ_k |x_ik y_k|/m
// gives
//
//	|ΔG_ij| ≤ γ_kF·s_i·s_j,   |Δr_i| ≤ γ_kF·s_i·√(2c),   |Δc| ≤ γ_kF·c.
//
// Gradient. MulVec sums d products per row from zero and Axpy adds
// −r_i: d + 1 roundings on every term, so with S_w = Σ_j s_j|w_j|
//
//	|fl(Gw − r)_i − (Gw − r)_i| ≤ s_i·(γ_{kF+d+1}·S_w + γ_{kF+1}·√(2c)),
//
// and gradErr is that bound's 2-norm, ‖s‖ times the bracket.
//
// Loss. Each pair G_ij·w_i·w_j meets at most 2d roundings inside
// Triple.loss and r_i·w_i at most d; the last subtraction and the
// addition of c take two more:
//
//	|Δf| ≤ ½γ_{kF+2d+2}·S_w² + γ_{kF+d+2}·√(2c)·S_w + γ_{kF+1}·c.
//
// Gradient-map norm. gradMapNorm forms a = w − γ·g (γ_2 of
// |w| + γ|g|), applies the prox (γ_K of |a|, proxRounds), subtracts
// from w (γ_1), takes the norm (γ_{d+1} with its square root) and
// divides by γ (γ_1). The prox is nonexpansive, so the gradient error
// reaches the norm at most undamped; with N̂ the computed norm and
// Q = ‖|w| + γ|g|‖
//
//	|N − N̂| ≤ γ_{d+3}·N̂ + γ_{K+2}·Q/γ + gradErr.
//
// The bounds read the computed √Ĝ_ii and ĉ, each within γ_{kF+1} of the
// exact value, and are evaluated in floating point; every bound is at
// most quadratic in those inputs and takes at most 2d + 10 roundings to
// evaluate, so one factor 1 + γ_{2kF+2d+16} (slack) covers both.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// gam is Higham's γ_n = nu/(1 − nu) for the unit roundoff u = 2⁻⁵³.
func gam(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// fillRounds is kF, the most roundings one summand of the triple meets
// in its fill: three in its product, m_0 − 1 additions in block 0, the
// largest, and p − 1 in the rank-order fold.
func (t *Triple) fillRounds() int {
	lo, hi := dist.BlockRange(t.m, t.p, 0)
	return hi - lo + t.p + 1
}

// slack covers the bound's inputs, computed from the stored triple,
// and the bound's own evaluation.
func (t *Triple) slack() float64 { return 1 + gam(2*t.fillRounds()+2*t.g.N+16) }

// weigh returns S_w = Σ_j s_j|w_j|.
func (t *Triple) weigh(w []float64) float64 {
	var sw float64
	for j, wj := range w {
		sw += t.s[j] * math.Abs(wj)
	}
	return sw
}

// gradErr bounds ‖grad(w) − ∇f(w)‖, ∇f(w) = Gw − r of the exact G and
// r of the data.
func (t *Triple) gradErr(w []float64) float64 {
	kF, d := t.fillRounds(), t.g.N
	return t.slack() * t.sNorm * (gam(kF+d+1)*t.weigh(w) + gam(kF+1)*math.Sqrt(2*t.c))
}

// lossErr bounds |loss(w) − f(w)|, f the exact least-squares loss of
// the data.
func (t *Triple) lossErr(w []float64) float64 {
	kF, d, sw := t.fillRounds(), t.g.N, t.weigh(w)
	return t.slack() * (gam(kF+2*d+2)*sw*sw/2 + gam(kF+d+2)*math.Sqrt(2*t.c)*sw + gam(kF+1)*t.c)
}

// mapErr bounds the distance from norm — gradMapNorm at w and the
// triple's step, from grad = grad(w) — to the exact gradient-map norm
// ‖w − prox_γg(w − γ∇f(w))‖/γ. It is +Inf for an operator proxRounds
// does not know. It charges its O(d) flops to cost.
func (t *Triple) mapErr(w, grad []float64, norm float64, reg prox.Operator, cost *perf.Cost) float64 {
	k, ok := proxRounds(reg)
	if !ok {
		return math.Inf(1)
	}
	var q float64
	for i, wi := range w {
		a := math.Abs(wi) + t.step*math.Abs(grad[i])
		q += a * a
	}
	cost.AddFlops(int64(7 * len(w)))
	d := t.g.N
	return t.slack()*(gam(d+3)*norm+gam(k+2)*math.Sqrt(q)/t.step) + t.gradErr(w)
}

// proxRounds returns K with |fl(prox)(a)_i − prox(a)_i| ≤ γ_K·|a_i| for
// the operators of package prox, from their operation order: the soft
// threshold's rounded level and difference (2), ridge's 1/(1 + λγ)
// and product (4), both for the elastic net (7), and for a group its
// g-term norm, the ratio level/norm, 1 − ratio and the product
// (g + 6, g the largest group). ok is false for any other operator.
func proxRounds(reg prox.Operator) (k int, ok bool) {
	switch g := reg.(type) {
	case prox.Zero:
		return 0, true
	case prox.L1:
		return 2, true
	case prox.L2Squared:
		return 4, true
	case prox.ElasticNet:
		return 7, true
	case prox.GroupL2:
		for _, grp := range g.Groups {
			k = max(k, len(grp))
		}
		return k + 6, true
	}
	return 0, false
}
