package mat

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

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
