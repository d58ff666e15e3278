package solver

import (
	"math"
	"math/big"
	"testing"

	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// refPrec is the math/big precision of the reference: every float64
// product and every sum of a fuzz problem is exact in it.
const refPrec = 2048

func bf(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// cancellingProblem builds a d×m problem made to cancel: features come
// in pairs ±B·z_j plus small noise, so G's entries are of order B²
// while Gw − r at a w that weights a pair alike is of order 1, and y
// interpolates Xᵀw* up to noise of size eps, so ∇f(w*) is nearly zero.
// About 1 − density of the small entries are dropped (a sparse CSC).
func cancellingProblem(seed uint64, d, m int, b, eps, density float64) (*sparse.CSC, []float64, []float64) {
	g := rng.New(seed)
	x := &sparse.CSC{Rows: d, Cols: m, ColPtr: make([]int, m+1)}
	wStar := make([]float64, d)
	for i := range wStar {
		wStar[i] = g.NormFloat64()
		if i%2 == 1 {
			wStar[i] = wStar[i-1] * (1 + g.NormFloat64()*1e-3)
		}
	}
	y := make([]float64, m)
	for j := 0; j < m; j++ {
		z := g.NormFloat64()
		var pred float64
		for i := 0; i < d; i++ {
			v := g.NormFloat64()
			if g.Float64() > density {
				v = 0
			}
			if i+1 < d || d%2 == 0 {
				v += math.Copysign(b, 0.5-float64(i%2)) * z
			}
			if v == 0 {
				continue
			}
			x.RowIdx = append(x.RowIdx, i)
			x.Val = append(x.Val, v)
			pred += v * wStar[i]
		}
		x.ColPtr[j+1] = len(x.Val)
		y[j] = pred + eps*g.NormFloat64()
	}
	return x, y, wStar
}

// bigState returns, in math/big, ∇f(w) and f(w) of the data — the
// reference the triple's bounds are measured against.
func bigState(x *sparse.CSC, y, w []float64) ([]*big.Float, *big.Float) {
	d, m := x.Rows, x.Cols
	grad := make([]*big.Float, d)
	for i := range grad {
		grad[i] = bf(0)
	}
	loss := bf(0)
	for j := 0; j < m; j++ {
		rows, vals := x.Col(j)
		res := bf(-y[j])
		for k, r := range rows {
			res.Add(res, new(big.Float).SetPrec(refPrec).Mul(bf(vals[k]), bf(w[r])))
		}
		for k, r := range rows {
			grad[r].Add(grad[r], new(big.Float).SetPrec(refPrec).Mul(res, bf(vals[k])))
		}
		loss.Add(loss, new(big.Float).SetPrec(refPrec).Mul(res, res))
	}
	inv := new(big.Float).SetPrec(refPrec).Quo(bf(1), bf(float64(m)))
	for _, gi := range grad {
		gi.Mul(gi, inv)
	}
	loss.Mul(loss, inv)
	return grad, loss.Quo(loss, bf(2))
}

// exactMapNorm returns ‖w − prox_γ(w − γ∇f)‖/γ for g = λ‖·‖₁ in
// math/big from the exact gradient.
func exactMapNorm(w []float64, grad []*big.Float, gamma, lambda float64) *big.Float {
	t := new(big.Float).SetPrec(refPrec).Mul(bf(gamma), bf(lambda))
	sum := bf(0)
	for i, wi := range w {
		a := new(big.Float).SetPrec(refPrec).Mul(bf(gamma), grad[i])
		a.Sub(bf(wi), a)
		p := new(big.Float).SetPrec(refPrec).Abs(a)
		p.Sub(p, t)
		if p.Sign() < 0 {
			p.SetFloat64(0)
		}
		if a.Sign() < 0 {
			p.Neg(p)
		}
		v := p.Sub(bf(wi), p)
		sum.Add(sum, new(big.Float).SetPrec(refPrec).Mul(v, v))
	}
	n := new(big.Float).SetPrec(refPrec).Sqrt(sum)
	return n.Quo(n, bf(gamma))
}

// absDiff returns |a − b| rounded to float64.
func absDiff(a, b *big.Float) float64 {
	v, _ := new(big.Float).SetPrec(refPrec).Sub(a, b).Float64()
	return math.Abs(v)
}

// FuzzTripleBound: on small problems built to cancel — large ± feature
// pairs and near-interpolating labels, P ∈ {1, …, 4}, sparse or dense —
// the triple's rounding bounds cover the exact values computed in
// math/big: ‖∇f − grad‖ ≤ gradErr, |f − loss| ≤ lossErr and, for l1,
// |N − N̂| ≤ mapErr for the gradient-map norm, at w*, next to it, at
// zero and at a random w.
func FuzzTripleBound(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(20), uint8(1), uint8(20), uint8(255))
	f.Add(uint64(2), uint8(5), uint8(47), uint8(3), uint8(30), uint8(120))
	f.Add(uint64(3), uint8(2), uint8(3), uint8(4), uint8(0), uint8(255))
	f.Add(uint64(4), uint8(6), uint8(33), uint8(2), uint8(39), uint8(40))
	f.Add(uint64(5), uint8(1), uint8(1), uint8(3), uint8(10), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, dIn, mIn, pIn, bExp, density uint8) {
		d, m, p := int(dIn)%7+1, int(mIn)%48+1, int(pIn)%4+1
		b := math.Ldexp(1, int(bExp)%40)
		x, y, wStar := cancellingProblem(seed, d, m, b, 1e-9, float64(density)/255)
		tri := FillTriple(x, y, p, nil)
		g := rng.New(seed ^ 0xb0)
		near, random := make([]float64, d), make([]float64, d)
		for i := range near {
			near[i] = wStar[i] * (1 + 1e-7*g.NormFloat64())
			random[i] = g.NormFloat64() / b
		}
		lambda := 0.1 * math.Abs(tri.r[0])
		reg := prox.L1{Lambda: lambda}
		grad, tmp := make([]float64, d), make([]float64, d)
		for name, w := range map[string][]float64{"w*": wStar, "near": near, "zero": make([]float64, d), "random": random} {
			refGrad, refLoss := bigState(x, y, w)
			tri.grad(grad, w, nil)
			var dg float64
			for i, gi := range refGrad {
				e := absDiff(gi, bf(grad[i]))
				dg += e * e
			}
			if dg = math.Sqrt(dg); !(dg <= tri.gradErr(w)) {
				t.Fatalf("%s (d=%d m=%d P=%d B=%g): ‖∇f − grad‖ = %.3g over gradErr %.3g", name, d, m, p, b, dg, tri.gradErr(w))
			}
			if dl := absDiff(refLoss, bf(tri.loss(w))); !(dl <= tri.lossErr(w)) {
				t.Fatalf("%s (d=%d m=%d P=%d B=%g): |f − loss| = %.3g over lossErr %.3g", name, d, m, p, b, dl, tri.lossErr(w))
			}
			norm := gradMapNorm(tmp, w, grad, tri.Step(), reg, nil)
			if dn, bound := absDiff(exactMapNorm(w, refGrad, tri.Step(), lambda), bf(norm)), tri.mapErr(w, grad, norm, reg, nil); !(dn <= bound) {
				t.Fatalf("%s (d=%d m=%d P=%d B=%g): |N − N̂| = %.3g over mapErr %.3g", name, d, m, p, b, dn, bound)
			}
		}
	})
}
