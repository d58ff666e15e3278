package sparse

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

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
	SampledGram(a, hd, rd, y, cols, scale, nil)

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
	SampledGram(a, h, r, y, []int{1, 4, 9, 16, 25}, 0.2, nil)
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
	FullGram(a, hd, rd, y, 1.0/25, nil)

	hp := mat.NewSymPacked(8)
	rp := make([]float64, 8)
	// Pre-dirty the packed buffers: FullGramPacked must clear them.
	for i := range hp.Data {
		hp.Data[i] = 7
	}
	rp[0] = 7
	FullGramPacked(a, hp, rp, y, 1.0/25, nil)

	if diff := mat.MaxAbsDiffPacked(mat.SymPackedFromDense(hd), hp); diff != 0 {
		t.Fatalf("FullGramPacked H diff %g", diff)
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
	coo := NewCOO(4, 2)
	coo.Append(0, 0, 1)
	coo.Append(2, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(1, 1, 1)
	coo.Append(3, 1, 1)
	a := coo.ToCSC()
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
	SampledGram(a, hd, r, y, []int{0, 1}, 1, &cd)
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
