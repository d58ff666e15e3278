package mat

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
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

// BenchmarkSymPackedMulVecSparse times the support-aware product
// against MulVec at d = 54 (covtype), 192, 392 and 784 (mnist's full
// width) for an x with nnz = share·d nonzeros at random places: "dense"
// is MulVec, "columns" the column sweep alone (what MulVecSparse runs
// below its crossover), "product" MulVecSparse as it chooses. The share
// where "columns" meets "dense" is the crossover sparseMulShare cites.
func BenchmarkSymPackedMulVecSparse(b *testing.B) {
	for _, d := range []int{54, 192, 392, 784} {
		h := NewSymPacked(d)
		for i := range h.Data {
			h.Data[i] = 1 / float64(i%97+1)
		}
		for _, share := range []float64{0.05, 0.1, 0.25, 0.5, 1} {
			nnz := max(1, int(math.Round(share*float64(d))))
			x := make([]float64, d)
			for _, j := range rng.New(uint64(d)).SampleWithoutReplacement(d, nnz) {
				x[j] = float64(j%5) - 2.5
			}
			y := make([]float64, d)
			for _, k := range []struct {
				name string
				mul  func()
			}{
				{"dense", func() { h.MulVec(y, x, nil) }},
				{"columns", func() {
					Zero(y)
					for j, xj := range x {
						if xj != 0 {
							h.AddScaledCol(j, xj, y, nil)
						}
					}
				}},
				{"product", func() { h.MulVecSparse(y, x, nil) }},
			} {
				b.Run(fmt.Sprintf("d%d/nnz%.2f/%s", d, share, k.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.mul()
					}
				})
			}
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
