package mat

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// FuzzPackedCholesky drives the packed factorization with arbitrary
// symmetric inputs: it must never panic — indefinite or degenerate
// matrices return ErrNotSPD — and when handed a deliberately SPD-ified
// matrix it must factor successfully, reconstruct A = U^T U, and solve
// to a bounded residual.
func FuzzPackedCholesky(f *testing.F) {
	f.Add(uint64(1), 4, false)
	f.Add(uint64(2), 1, true)
	f.Add(uint64(3), 9, true)
	f.Add(uint64(4), 16, false)
	f.Add(uint64(5), 7, true)
	f.Fuzz(func(t *testing.T, seed uint64, n int, spdify bool) {
		if n < 0 {
			n = -n
		}
		n = n%24 + 1
		r := rng.New(seed)
		a := NewSymPacked(n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64() * 4
		}
		if spdify {
			// A = sum of rank-1 terms + a diagonal boost: SPD with a
			// bounded condition number, so the factorization must succeed
			// and the solve must be accurate.
			a.Zero()
			x := make([]float64, n)
			for k := 0; k < n+2; k++ {
				for i := range x {
					x[i] = r.NormFloat64()
				}
				for i := range x {
					tail := a.RowTail(i)
					for jj := range tail {
						tail[jj] += x[i] * x[i+jj]
					}
				}
			}
			for i := 0; i < n; i++ {
				a.Set(i, i, a.At(i, i)+1+float64(n))
			}
		}

		u, err := CholeskyPacked(a, nil)
		if err != nil {
			if spdify {
				t.Fatalf("SPD matrix rejected (n=%d): %v", n, err)
			}
			return // indefinite input correctly refused, never a panic
		}
		// Factor invariant: A = U^T U, elementwise within round-off of
		// the accumulated magnitudes.
		scale := 1.0
		for _, v := range a.Data {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var s float64
				for k := 0; k <= i; k++ {
					s += u.At(k, i) * u.At(k, j)
				}
				if d := math.Abs(s - a.At(i, j)); d > 1e-8*scale*float64(n) {
					t.Fatalf("n=%d: (U^T U)[%d,%d] off by %g", n, i, j, d)
				}
			}
		}
		if !spdify {
			return
		}
		// Solve residual on the well-conditioned instance.
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveSPDPacked(a, b, nil)
		if err != nil {
			t.Fatalf("solve failed on SPD input: %v", err)
		}
		ax := make([]float64, n)
		a.MulVec(ax, x, nil)
		var bn float64
		for i := range b {
			if av := math.Abs(b[i]); av > bn {
				bn = av
			}
		}
		for i := range ax {
			if d := math.Abs(ax[i] - b[i]); d > 1e-7*scale*float64(n)*(1+bn) {
				t.Fatalf("n=%d: residual[%d] = %g too large", n, i, d)
			}
		}
	})
}

// FuzzMulVecSparse holds the support-aware product to MulVec bit for bit
// (and flop for flop) on a finite packed A: n from 0 to 70 — below four
// rows and every four-row remainder —, empty, single, full and random
// supports of x, ±0 and subnormal entries in x and exact ±0 entries in
// A. mode picks the support (mode % 5: empty, single, full, random at
// most 30 % full — the column sweep —, random at any density) and
// whether A carries zeros (mode / 5 odd).
func FuzzMulVecSparse(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 12, 53, 54, 70} {
		for mode := range 10 {
			f.Add(uint64(n*8+mode), uint8(n), uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, nb, mode uint8) {
		n := int(nb) % 71
		r := rng.New(seed)
		a := NewSymPacked(n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
			if mode/5%2 == 1 && r.Intn(3) == 0 {
				a.Data[i] = math.Copysign(0, r.NormFloat64())
			}
		}
		x := make([]float64, n)
		density := r.Float64()
		if mode%5 == 3 {
			density *= 0.3
		}
		for j := range x {
			var on bool
			switch mode % 5 {
			case 1:
				on = j == int(seed%uint64(n))
			case 2:
				on = true
			case 3, 4:
				on = r.Float64() < density
			}
			switch {
			case !on:
				x[j] = math.Copysign(0, r.NormFloat64())
			case r.Intn(4) == 0:
				x[j] = math.Copysign(float64(1+r.Intn(1<<20))*math.SmallestNonzeroFloat64, r.NormFloat64())
			default:
				x[j] = r.NormFloat64()
			}
		}
		want, got := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = math.NaN() // the product overwrites y
		}
		var cw, cg perf.Cost
		a.MulVec(want, x, &cw)
		a.MulVecSparse(got, x, &cg)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d mode=%d: y[%d] = %v (%#x), MulVec %v (%#x)", n, mode, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if cg != cw {
			t.Fatalf("n=%d: billed %+v, MulVec %+v", n, cg, cw)
		}
	})
}
