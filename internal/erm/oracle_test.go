package erm

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// sampledHessianSweep is a reference form of SampledHessianPacked that
// shares no code with sparse.AddOuterPacked or the dense panels: one row
// at a time, each addressed through its RowTail. The tests and
// FuzzSampledHessianPacked hold both branches to it, bit for bit and
// flop for flop.
func (o *Objective) sampledHessianSweep(h *mat.SymPacked, w []float64, cols []int, c *perf.Cost) {
	scale := 1 / float64(len(cols))
	var flops int64
	for _, j := range cols {
		rows, vals := o.X.Col(j)
		var z float64
		for k, r := range rows {
			z += vals[k] * w[r]
		}
		curv := o.Loss.Second(z, o.Y[j]) * scale
		if curv == 0 {
			continue
		}
		for p, rp := range rows {
			tail := h.RowTail(rp)
			cv := curv * vals[p]
			for q := p; q < len(rows); q++ {
				tail[rows[q]-rp] += cv * vals[q]
			}
		}
		flops += int64(len(rows)*(len(rows)+1) + 2*len(rows) + 4)
	}
	c.AddFlops(flops)
}

// FuzzSampledHessianPacked pins SampledHessianPacked — the sparse
// kernel on a sparse block, the dense panels on a full one — to the
// oracle sweep, bit for bit and flop for flop: random blocks up to
// d = 80 with stored +0 and -0, every loss, Huber labels far enough
// from the margins that some or all columns have zero curvature, empty
// and repeated sample sets, accumulating twice onto a non-zero H.
func FuzzSampledHessianPacked(f *testing.F) {
	f.Add(uint64(1), 12, 40, 17, uint8(100), uint8(0))
	f.Add(uint64(2), 80, 200, 60, uint8(60), uint8(1))
	f.Add(uint64(3), 9, 300, 290, uint8(255), uint8(2))
	f.Add(uint64(4), 5, 10, 0, uint8(128), uint8(3))
	f.Add(uint64(5), 33, 50, 50, uint8(255), uint8(1))
	f.Add(uint64(6), 40, 120, 80, uint8(90), uint8(2))
	f.Add(uint64(7), 4, 30, 1, uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, d, m, n int, density, lossSel uint8) {
		d, m = abs(d)%80+1, abs(m)%400+1
		n = abs(n) % (m + 1)
		g := rng.New(seed)
		x := &sparse.CSC{Rows: d, Cols: m, ColPtr: make([]int, m+1)}
		for j := 0; j < m; j++ {
			for i := 0; i < d; i++ {
				if density != 255 && g.Float64() >= float64(density)/255 {
					continue
				}
				v := g.NormFloat64()
				switch g.Intn(16) {
				case 0:
					v = 0
				case 1:
					v = math.Copysign(0, -1)
				}
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, v)
			}
			x.ColPtr[j+1] = len(x.Val)
		}
		y, w := make([]float64, m), make([]float64, d)
		for j := range y {
			y[j] = 3 * g.NormFloat64() // |y - z| > 1 often: zero Huber curvature
		}
		for i := range w {
			w[i] = 0.3 * g.NormFloat64()
		}
		loss := []Loss{Squared{}, Logistic{}, Huber{Delta: 1}, Quantile{Tau: 0.3, Eps: 0.5}}[int(lossSel)%4]
		cols := make([]int, n)
		for i := range cols {
			cols[i] = g.Intn(m)
		}
		o := NewObjective(x, y, loss)
		got, want := mat.NewSymPacked(d), mat.NewSymPacked(d)
		for i := range got.Data {
			got.Data[i] = g.NormFloat64()
		}
		got.Data[0] = math.Copysign(0, -1)
		copy(want.Data, got.Data)
		var cGot, cWant perf.Cost
		for call := 0; call < 2; call++ {
			o.SampledHessianPacked(got, w, cols, &cGot)
			o.sampledHessianSweep(want, w, cols, &cWant)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: H[%d] = %v, the oracle sweep gives %v", loss.Name(), i, got.Data[i], v)
			}
		}
		if cGot.Flops != cWant.Flops {
			t.Fatalf("%s: billed %d flops, the oracle sweep bills %d", loss.Name(), cGot.Flops, cWant.Flops)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == math.MinInt {
			return 0
		}
		return -x
	}
	return x
}
