package sparse

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// sampledGramDense is the full-storage form of SampledGramPacked, kept
// as its oracle: H (Rows x Rows, row-major) += scale * sum_{j in cols}
// x_j x_j^T and R += scale * sum_{j in cols} y_j x_j. Each off-diagonal
// product scale*x_i*x_j is computed once and written to both
// triangles, so H is bitwise symmetric, and every element receives its
// contributions in the packed kernel's order, so the packed result
// equals H's upper triangle bit for bit. It charges the 2nz^2 + 2nz
// flops of full storage per sampled column. A nil cols accumulates
// every column.
func sampledGramDense(a *CSC, h *mat.Dense, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if h.Rows != a.Rows || h.Cols != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: sampledGramDense dimension mismatch")
	}
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	var flops int64
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		rows, vals := a.Col(j)
		nz := len(rows)
		for p := 0; p < nz; p++ {
			hp := h.Row(rows[p])
			sv := scale * vals[p]
			hp[rows[p]] += sv * vals[p]
			for q := p + 1; q < nz; q++ {
				v := sv * vals[q]
				hp[rows[q]] += v
				h.Row(rows[q])[rows[p]] += v
			}
		}
		sy := scale * y[j]
		for p := 0; p < nz; p++ {
			r[rows[p]] += sy * vals[p]
		}
		flops += int64(2*nz*nz + 2*nz)
	}
	c.AddFlops(flops)
}

// upper packs the upper triangle of a square dense matrix.
func upper(a *mat.Dense) *mat.SymPacked {
	out := mat.NewSymPacked(a.Rows)
	for i := 0; i < a.Rows; i++ {
		copy(out.RowTail(i), a.Row(i)[i:])
	}
	return out
}

func TestSampledGramPackedBitIdenticalToDense(t *testing.T) {
	a := randomCSC(12, 40, 0.4, 91)
	y := make([]float64, 40)
	for j := range y {
		y[j] = float64(j%5) - 2
	}
	cols := []int{0, 3, 3, 7, 19, 39} // includes a repeat
	const scale = 1.0 / 6

	hd := mat.NewDense(12, 12)
	rd := make([]float64, 12)
	sampledGramDense(a, hd, rd, y, cols, scale, nil)

	hp := mat.NewSymPacked(12)
	rp := make([]float64, 12)
	SampledGramPacked(a, hp, rp, y, cols, scale, nil)

	for i := 0; i < 12; i++ {
		for j := i; j < 12; j++ {
			if hd.At(i, j) != hp.At(i, j) {
				t.Fatalf("H(%d,%d): dense %v packed %v (not bitwise equal)", i, j, hd.At(i, j), hp.At(i, j))
			}
		}
		if rd[i] != rp[i] {
			t.Fatalf("R[%d]: dense %v packed %v", i, rd[i], rp[i])
		}
	}
}

func TestSampledGramDenseIsBitwiseSymmetric(t *testing.T) {
	// The packed/dense engine equivalence rests on the dense kernel
	// computing each off-diagonal product once and mirroring it.
	a := randomCSC(10, 30, 0.5, 92)
	y := make([]float64, 30)
	h := mat.NewDense(10, 10)
	r := make([]float64, 10)
	sampledGramDense(a, h, r, y, []int{1, 4, 9, 16, 25}, 0.2, nil)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if h.At(i, j) != h.At(j, i) {
				t.Fatalf("H(%d,%d) = %v != H(%d,%d) = %v", i, j, h.At(i, j), j, i, h.At(j, i))
			}
		}
	}
}

func TestFullGramPackedMatchesFullGram(t *testing.T) {
	a := randomCSC(8, 25, 0.6, 93)
	y := make([]float64, 25)
	for j := range y {
		y[j] = float64(j)
	}
	hd := mat.NewDense(8, 8)
	rd := make([]float64, 8)
	sampledGramDense(a, hd, rd, y, nil, 1.0/25, nil)

	hp := mat.NewSymPacked(8)
	rp := make([]float64, 8)
	// Pre-dirty the packed buffers: FullGramPacked must clear them.
	for i := range hp.Data {
		hp.Data[i] = 7
	}
	rp[0] = 7
	FullGramPacked(a, hp, rp, y, 1.0/25, nil)

	for i, v := range upper(hd).Data {
		if hp.Data[i] != v {
			t.Fatalf("FullGramPacked H[%d] = %v, dense %v", i, hp.Data[i], v)
		}
	}
	for i := range rd {
		if rd[i] != rp[i] {
			t.Fatalf("R[%d]: %v vs %v", i, rd[i], rp[i])
		}
	}
}

func TestSampledGramPackedFlopAccounting(t *testing.T) {
	// Column 0: nz = 2, column 1: nz = 3. Packed charge per column is
	// nz(nz+1) + 2nz against the dense 2nz^2 + 2nz.
	a := &CSC{Rows: 4, Cols: 2, ColPtr: []int{0, 2, 5}, RowIdx: []int{0, 2, 0, 1, 3}, Val: []float64{1, 1, 1, 1, 1}}
	h := mat.NewSymPacked(4)
	r := make([]float64, 4)
	y := make([]float64, 2)
	var c perf.Cost
	SampledGramPacked(a, h, r, y, []int{0, 1}, 1, &c)
	want := int64((2*3 + 2*2) + (3*4 + 2*3))
	if c.Flops != want {
		t.Fatalf("packed flops = %d, want %d", c.Flops, want)
	}
	var cd perf.Cost
	hd := mat.NewDense(4, 4)
	sampledGramDense(a, hd, r, y, []int{0, 1}, 1, &cd)
	wantDense := int64((2*2*2 + 2*2) + (2*3*3 + 2*3))
	if cd.Flops != wantDense {
		t.Fatalf("dense flops = %d, want %d", cd.Flops, wantDense)
	}
	if c.Flops >= cd.Flops {
		t.Fatalf("packed gram not cheaper: %d vs %d", c.Flops, cd.Flops)
	}

	// A block with every entry stored takes the dense-panel path, which
	// must bill what the sweep bills for nz = d — goldens and bench-exact
	// pin Cost — and, once its scratch is warm, allocate nothing.
	const d, m = 6, 300
	full, yf := fullCSC(d, m, 3)
	cols := make([]int, 2*PanelCols+11)
	for i := range cols {
		cols[i] = (i * 7) % m
	}
	hf, rf := mat.NewSymPacked(d), make([]float64, d)
	var cf perf.Cost
	SampledGramPacked(full, hf, rf, yf, cols, 1, &cf)
	if want := int64(len(cols) * (d*(d+1) + 2*d)); cf.Flops != want {
		t.Fatalf("dense-panel flops = %d, want %d", cf.Flops, want)
	}
	if n := testing.AllocsPerRun(20, func() {
		SampledGramPacked(full, hf, rf, yf, cols, 1, &cf)
	}); n != 0 {
		t.Fatalf("dense-panel path allocated %g times per call", n)
	}
}

func TestSampledGramPackedDimensionPanics(t *testing.T) {
	a := randomCSC(6, 4, 0.5, 94)
	for _, f := range []func(){
		func() {
			SampledGramPacked(a, mat.NewSymPacked(5), make([]float64, 6), make([]float64, 4), nil, 1, nil)
		},
		func() {
			SampledGramPacked(a, mat.NewSymPacked(6), make([]float64, 5), make([]float64, 4), nil, 1, nil)
		},
		func() {
			SampledGramPacked(a, mat.NewSymPacked(6), make([]float64, 6), make([]float64, 3), nil, 1, nil)
		},
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
