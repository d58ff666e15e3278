package erm

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// TestSampledHessianPackedPanelBitIdenticalToSweep: on a block that
// stores every entry, the dense-panel path — more than one panel, a
// ragged last one, a repeated column, and under Huber a good share of
// zero-curvature columns dropped at the gather — leaves the bits and
// the bill of the column sweep, accumulating onto a non-zero H.
func TestSampledHessianPackedPanelBitIdenticalToSweep(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 6, 7, 54} {
		const m = 700
		g := rng.New(uint64(d) + 40)
		x := &sparse.CSC{Rows: d, Cols: m, ColPtr: make([]int, m+1)}
		for j := 0; j < m; j++ {
			for i := 0; i < d; i++ {
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, g.NormFloat64())
			}
			x.ColPtr[j+1] = len(x.Val)
		}
		if !x.Full() {
			t.Fatal("test block is not full")
		}
		y := make([]float64, m)
		for j := range y {
			y[j] = 2 * g.NormFloat64()
		}
		w := make([]float64, d)
		for i := range w {
			w[i] = 0.3 * g.NormFloat64()
		}
		cols := g.SampleWithoutReplacement(m, 2*sparse.PanelCols+59)
		cols[11] = cols[2]
		for _, loss := range []Loss{Logistic{}, Huber{Delta: 1}} {
			o := NewObjective(x, y, loss)
			if _, isHuber := loss.(Huber); isHuber {
				flat := 0
				for _, j := range cols {
					_, vals := x.Col(j)
					if loss.Second(mat.Dot(vals, w, nil), y[j]) == 0 {
						flat++
					}
				}
				if flat == 0 || flat == len(cols) {
					t.Fatalf("d=%d: %d of %d columns have zero curvature; the test needs a mix", d, flat, len(cols))
				}
			}
			got, want := mat.NewSymPacked(d), mat.NewSymPacked(d)
			for i := range got.Data {
				got.Data[i] = g.NormFloat64()
			}
			copy(want.Data, got.Data)
			var cGot, cWant perf.Cost
			for call := 0; call < 2; call++ {
				o.SampledHessianPacked(got, w, cols, &cGot)
				o.sampledHessianSweep(want, w, cols, &cWant)
			}
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("d=%d %s: packed[%d] = %v, sweep gives %v", d, loss.Name(), i, got.Data[i], v)
				}
			}
			if cGot.Flops != cWant.Flops {
				t.Fatalf("d=%d %s: billed %d flops, sweep bills %d", d, loss.Name(), cGot.Flops, cWant.Flops)
			}
		}
	}
}
