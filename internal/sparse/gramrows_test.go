package sparse

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

func gramRowsTestCSC(d, m int, density float64, seed uint64) (*CSC, []float64) {
	src := rng.NewSource(seed)
	st := src.Stream(0, 0)
	colPtr := make([]int, 1, m+1)
	var rowIdx []int
	var val []float64
	for j := 0; j < m; j++ {
		for i := 0; i < d; i++ {
			if st.Float64() < density {
				rowIdx = append(rowIdx, i)
				val = append(val, st.Float64()*2-1)
			}
		}
		colPtr = append(colPtr, len(rowIdx))
	}
	y := make([]float64, m)
	for j := range y {
		y[j] = st.Float64()*2 - 1
	}
	return &CSC{Rows: d, Cols: m, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, y
}

// TestSampledGramPackedRowsMatchesGatherSub is the bit-identity
// contract of the reduced kernel: the |A| x |A| Gram it accumulates
// must equal the act-indexed principal submatrix of the full packed
// Gram bit for bit (same per-element accumulation order), and its R
// must equal the full kernel's R exactly.
func TestSampledGramPackedRowsMatchesGatherSub(t *testing.T) {
	const d, m = 12, 40
	a, y := gramRowsTestCSC(d, m, 0.4, 99)
	cols := []int{1, 4, 7, 8, 20, 33}
	act := []int{0, 3, 4, 7, 10, 11}
	pos := make([]int, d)
	for i := range pos {
		pos[i] = -1
	}
	for p, i := range act {
		pos[i] = p
	}

	full := mat.NewSymPacked(d)
	rFull := make([]float64, d)
	var cFull perf.Cost
	SampledGramPacked(a, full, rFull, y, cols, 0.25, &cFull)

	got := mat.NewSymPacked(len(act))
	rGot := make([]float64, d)
	var cGot perf.Cost
	SampledGramPackedRows(a, got, rGot, y, cols, act, pos, nil, nil, 0.25, &cGot)

	for p := 0; p < len(act); p++ {
		for q := p; q < len(act); q++ {
			if want := full.At(act[p], act[q]); got.At(p, q) != want {
				t.Fatalf("reduced Gram (%d,%d) = %g, want %g (bitwise)",
					p, q, got.At(p, q), want)
			}
		}
	}
	for i := range rFull {
		if rGot[i] != rFull[i] {
			t.Fatalf("R[%d] = %g, want %g (bitwise)", i, rGot[i], rFull[i])
		}
	}
	if cGot.Flops >= cFull.Flops {
		t.Fatalf("reduced kernel charged %d flops, full kernel %d", cGot.Flops, cFull.Flops)
	}
}

// TestSampledGramPackedRowsNilCols: nil cols means all columns, like
// the full-Gram kernels.
func TestSampledGramPackedRowsNilCols(t *testing.T) {
	const d, m = 8, 15
	a, y := gramRowsTestCSC(d, m, 0.5, 7)
	act := []int{1, 2, 5, 6}
	pos := make([]int, d)
	for i := range pos {
		pos[i] = -1
	}
	for p, i := range act {
		pos[i] = p
	}
	all := make([]int, m)
	for j := range all {
		all[j] = j
	}

	hNil := mat.NewSymPacked(len(act))
	rNil := make([]float64, d)
	var c perf.Cost
	SampledGramPackedRows(a, hNil, rNil, y, nil, act, pos, nil, nil, 1, &c)

	hAll := mat.NewSymPacked(len(act))
	rAll := make([]float64, d)
	SampledGramPackedRows(a, hAll, rAll, y, all, act, pos, nil, nil, 1, &c)

	for p := 0; p < len(act); p++ {
		for q := p; q < len(act); q++ {
			if hNil.At(p, q) != hAll.At(p, q) {
				t.Fatalf("nil-cols Gram differs at (%d,%d)", p, q)
			}
		}
	}
	for i := range rNil {
		if rNil[i] != rAll[i] {
			t.Fatalf("nil-cols R differs at %d", i)
		}
	}
}

func TestSampledGramPackedRowsDimensionPanics(t *testing.T) {
	a, y := gramRowsTestCSC(6, 10, 0.5, 1)
	pos := make([]int, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	var c perf.Cost
	SampledGramPackedRows(a, mat.NewSymPacked(3), make([]float64, 6), y, nil, []int{0, 1}, pos, nil, nil, 1, &c)
}
