package mat

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/rng"
)

// Seeded property tests for the packed symmetric wire format: the
// dense<->packed conversions are exact (same bits, no arithmetic), the
// packed matvec is bit-identical to the dense one (the documented
// contract that makes the packed slot a pure wire-format choice), and the
// accessor symmetry holds at every index.

func randSym(r *rng.Rng, n int) *SymPacked {
	a := NewSymPacked(n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return a
}

func TestSymPackedDenseRoundTripExactProperty(t *testing.T) {
	r := rng.New(51)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		a := randSym(r, n)
		back := packDense(unpack(a))
		for i, v := range a.Data {
			if back.Data[i] != v {
				t.Fatalf("n=%d: round trip changed Data[%d]: %v -> %v", n, i, v, back.Data[i])
			}
		}
		// And the other direction: dense -> packed -> dense.
		d := unpack(a)
		d2 := unpack(packDense(d))
		for i, v := range d.Data {
			if d2.Data[i] != v {
				t.Fatalf("n=%d: dense round trip not exact", n)
			}
		}
	}
}

func TestSymPackedMulVecBitIdenticalProperty(t *testing.T) {
	r := rng.New(52)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		a := randSym(r, n)
		d := unpack(a)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		yp := make([]float64, n)
		yd := make([]float64, n)
		a.MulVec(yp, x, nil)
		d.MulVec(yd, x, nil)
		for i := range yp {
			if yp[i] != yd[i] {
				t.Fatalf("n=%d: y[%d] = %v (packed) vs %v (dense): not bit-identical",
					n, i, yp[i], yd[i])
			}
		}
	}
}

// TestSymPackedMulVecReferenceOrder holds MulVec to the textbook
// row-by-row sum — y[i] = 0 + A(i,0)x[0] + A(i,1)x[1] + … in ascending
// j, every add rounded — bit for bit at every n in 0..70: below the
// four-row block, and every n mod 4 of the remainder rows after it.
// Entries span twelve orders of magnitude, so any other association
// shows.
func TestSymPackedMulVecReferenceOrder(t *testing.T) {
	r := rng.New(54)
	for n := 0; n <= 70; n++ {
		a := randSym(r, n)
		for i := range a.Data {
			a.Data[i] *= math.Pow(10, float64(r.Intn(13)-6))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = math.NaN() // MulVec overwrites
		}
		a.MulVec(y, x, nil)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Float64bits(y[i]) != math.Float64bits(s) {
				t.Fatalf("n=%d: y[%d] = %v, reference order gives %v", n, i, y[i], s)
			}
		}
	}
}

func TestSymPackedAtSetSymmetryProperty(t *testing.T) {
	r := rng.New(53)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(12)
		a := NewSymPacked(n)
		i, j := r.Intn(n), r.Intn(n)
		v := r.NormFloat64()
		a.Set(i, j, v)
		if a.At(i, j) != v || a.At(j, i) != v {
			t.Fatalf("n=%d: Set(%d,%d) not visible symmetrically", n, i, j)
		}
		// Exactly one packed slot was written.
		nz := 0
		for _, d := range a.Data {
			if d != 0 {
				nz++
			}
		}
		if v != 0 && nz != 1 {
			t.Fatalf("n=%d: Set touched %d slots", n, nz)
		}
	}
}
