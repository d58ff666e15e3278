package mat

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestPanelUpdateBitIdenticalToRankOneSweep: for every tile-remainder
// dimension and a few panel widths, PanelUpdate on a non-zero A leaves
// exactly what w successive rank-1 updates A(i,j) += s_k[i]*t_k[j]
// leave, and charges the w*n(n+1) multiply-add flops.
func TestPanelUpdateBitIdenticalToRankOneSweep(t *testing.T) {
	for n := 0; n <= 11; n++ {
		for _, w := range []int{0, 1, 2, 9} {
			s, tp := make([]float64, n*w), make([]float64, n*w)
			for i := range s {
				tp[i] = math.Sin(float64(5*i + n + 1))
				s[i] = tp[i] / 3
			}
			got := packDense(symTestMatrix(n))
			want := got.Clone()
			for k := 0; k < w; k++ {
				for i := 0; i < n; i++ {
					tail := want.RowTail(i)
					for j := i; j < n; j++ {
						tail[j-i] += s[i*w+k] * tp[j*w+k]
					}
				}
			}
			var c perf.Cost
			got.PanelUpdate(s, tp, w, &c)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d w=%d: packed[%d] = %v, rank-1 sweep gives %v", n, w, i, got.Data[i], v)
				}
			}
			if want := int64(w * n * (n + 1)); c.Flops != want {
				t.Fatalf("n=%d w=%d: charged %d flops, want %d", n, w, c.Flops, want)
			}
		}
	}
}

func TestPanelUpdateDimensionPanics(t *testing.T) {
	a := NewSymPacked(3)
	for _, f := range []func(){
		func() { a.PanelUpdate(make([]float64, 5), make([]float64, 6), 2, nil) },
		func() { a.PanelUpdate(make([]float64, 6), make([]float64, 5), 2, nil) },
		func() { a.PanelUpdate(nil, nil, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected dimension panic")
				}
			}()
			f()
		}()
	}
}
