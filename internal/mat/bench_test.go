package mat

import (
	"fmt"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// BenchmarkSymPackedMulVec times the packed symmetric matvec at the
// inner-pass Hessian sizes of the repo benchmark (d = 54 covtype,
// 192 and 392 the dense Gram shapes) and reports the operator's wire
// footprint (the words one packed Hessian slot occupies on the network)
// next to the runtime.
func BenchmarkSymPackedMulVec(b *testing.B) {
	for _, d := range []int{54, 192, 392} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			h := NewSymPacked(d)
			for i := 0; i < d; i++ {
				for j := i; j < d; j++ {
					h.Set(i, j, 1/float64(i+j+1))
				}
			}
			x := make([]float64, d)
			y := make([]float64, d)
			for i := range x {
				x[i] = float64(i%5) - 2
			}
			b.ReportAllocs()
			b.ReportMetric(float64(PackedLen(d)), "words/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.MulVec(y, x, nil)
			}
		})
	}
}

// BenchmarkCholeskyPacked times the left-looking packed factorization
// at the engine's default Hessian size. One factor allocation per op is
// the contract (the factor is the result); the sweep itself is
// unit-stride with no temporaries.
func BenchmarkCholeskyPacked(b *testing.B) {
	const d = 96
	h := NewSymPacked(d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
		h.Set(i, i, h.At(i, i)+2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CholeskyPacked(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymPackedPanelUpdate times the register-tiled packed SYRK at
// the two dense Gram shapes of the repo benchmark (d = 192 and 392, one
// 200-column panel — a stage-B slot at b = 0.1) and reports the rate
// its multiply-adds run at.
func BenchmarkSymPackedPanelUpdate(b *testing.B) {
	for _, d := range []int{192, 392} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			const w = 200
			h := NewSymPacked(d)
			s, t := make([]float64, d*w), make([]float64, d*w)
			for i := range t {
				t[i] = float64(i%7) - 3
				s[i] = t[i] / w
			}
			var c perf.Cost
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.PanelUpdate(s, t, w, &c)
			}
			b.ReportMetric(float64(c.Flops)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}
