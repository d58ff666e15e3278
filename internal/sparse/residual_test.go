package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// checkResidualPass runs ResidualGrad onto g and ResidualLoss over
// [lo, hi) and fails unless each equals its three-pass oracle over
// ColSlice(lo, hi) — residualPasses started from the same g, and
// lossPasses — in the bits of g, of the loss and in Cost.
func checkResidualPass(t *testing.T, a *CSC, g, w, y []float64, lo, hi int) {
	t.Helper()
	blk, yb, scratch := a.ColSlice(lo, hi), y[lo:hi], make([]float64, hi-lo)
	want := append([]float64(nil), g...)
	got := append([]float64(nil), g...)
	var wantCost, gotCost perf.Cost
	wantLoss := residualPasses(blk, want, w, yb, scratch, &wantCost)
	gotLoss := a.ResidualGrad(got, w, y, lo, hi, &gotCost)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || gotCost != wantCost {
		t.Fatalf("ResidualGrad [%d,%d): loss %.17g cost %+v, three passes %.17g cost %+v", lo, hi, gotLoss, gotCost, wantLoss, wantCost)
	}
	requireSameBits(t, fmt.Sprintf("ResidualGrad [%d,%d) g", lo, hi), got, want)

	wantCost, gotCost = perf.Cost{}, perf.Cost{}
	wantLoss = lossPasses(blk, w, yb, scratch, &wantCost)
	gotLoss = a.ResidualLoss(w, y, lo, hi, &gotCost)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || gotCost != wantCost {
		t.Fatalf("ResidualLoss [%d,%d): loss %.17g cost %+v, two passes %.17g cost %+v", lo, hi, gotLoss, gotCost, wantLoss, wantCost)
	}
}

// TestResidualGradMatchesThreePasses: the one-sweep data pass equals,
// bit for bit and in its charge, the three passes a rank's data pass
// runs over its ColSlice block — MulVecT, Axpy of −y, MulVec — with the
// squared residuals summed in column order, and ResidualLoss equals
// MulVecT followed by the squared-residual loop. Some labels equal their
// prediction, so some residuals are exactly zero and skipped.
func TestResidualGradMatchesThreePasses(t *testing.T) {
	a := randomCSC(9, 40, 0.4, 11)
	g := rng.New(12)
	w := make([]float64, a.Rows)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	y := make([]float64, a.Cols)
	a.MulVecT(y, w, nil)
	for j := range y {
		if j%3 != 0 {
			y[j] += g.NormFloat64()
		}
	}
	for _, r := range [][2]int{{0, 40}, {0, 13}, {13, 27}, {27, 40}, {5, 5}} {
		checkResidualPass(t, a, make([]float64, a.Rows), w, y, r[0], r[1])
	}
}

// FuzzResidualPass pins both sweeps to their three-pass oracles
// (checkResidualPass) on blocks up to 64 × 300 with stored +0 and −0
// and, at low density, empty columns; a random [lo, hi), empty ones
// among them; every third label equal to its column's prediction, an
// exactly-zero residual; and g accumulated onto a start whose even
// entries are −0, so a zero residual that was not skipped would flip a
// row no other column touches to +0.
func FuzzResidualPass(f *testing.F) {
	f.Add(uint64(1), 9, 40, 0, 40, uint8(100))
	f.Add(uint64(2), 40, 6, 0, 6, uint8(60))
	f.Add(uint64(3), 3, 50, 7, 31, uint8(50))
	f.Add(uint64(4), 12, 30, 17, 17, uint8(120))
	f.Add(uint64(5), 5, 20, 0, 20, uint8(0))
	f.Add(uint64(6), 30, 300, 100, 300, uint8(255))
	f.Add(uint64(8), 40, 3, 0, 3, uint8(80))
	f.Fuzz(func(t *testing.T, seed uint64, d, m, lo, hi int, density uint8) {
		d, m = abs(d)%64+1, abs(m)%300+1
		lo, hi = abs(lo)%(m+1), abs(hi)%(m+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, y := fuzzCSC(d, m, float64(density)/255, seed)
		g := rng.New(seed ^ 0x7e5)
		w, start := make([]float64, d), make([]float64, d)
		for i := range w {
			w[i] = g.NormFloat64()
			start[i] = g.NormFloat64()
			if i%2 == 0 {
				start[i] = math.Copysign(0, -1)
			}
		}
		for j := 0; j < m; j += 3 {
			rows, vals := a.Col(j)
			var p float64
			for k, r := range rows {
				p += vals[k] * w[r]
			}
			y[j] = p
		}
		checkResidualPass(t, a, start, w, y, lo, hi)
	})
}

// BenchmarkResidualPass times the fused sweeps against the three-pass
// form over one rank's whole block, at ls_screen_tcp's mnist block
// (784 × 4000, f = 0.19) and ls_lat_tcp's covtype block (54 × 12000,
// f = 0.22): grad is ResidualGrad against MulVecT, Axpy and MulVec;
// loss is ResidualLoss against MulVecT and the squared-residual loop.
func BenchmarkResidualPass(b *testing.B) {
	for _, bc := range []struct {
		name    string
		d, m    int
		density float64
	}{
		{"mnist784_f0.19", 784, 4000, 0.19},
		{"covtype54_f0.22", 54, 12000, 0.22},
	} {
		a := randomCSC(bc.d, bc.m, bc.density, 1)
		g := rng.New(2)
		w, y, grad, scratch := make([]float64, bc.d), make([]float64, bc.m), make([]float64, bc.d), make([]float64, bc.m)
		for i := range w {
			w[i] = g.NormFloat64() / 10
		}
		for j := range y {
			y[j] = g.NormFloat64()
		}
		for _, run := range []struct {
			name string
			pass func()
		}{
			{"grad/fused", func() { a.ResidualGrad(grad, w, y, 0, bc.m, nil) }},
			{"grad/threepass", func() { residualPasses(a, grad, w, y, scratch, nil) }},
			{"loss/fused", func() { a.ResidualLoss(w, y, 0, bc.m, nil) }},
			{"loss/threepass", func() { lossPasses(a, w, y, scratch, nil) }},
		} {
			b.Run(bc.name+"/"+run.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run.pass()
				}
			})
		}
	}
}
