package mat

import (
	"math"
	"testing"

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
