package sparse_test

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// exampleX is X = [1 0 2; 0 3 0] (2 features, 3 samples) in CSC form:
// column j's row indices and values are RowIdx and Val over
// [ColPtr[j], ColPtr[j+1]).
func exampleX() *sparse.CSC {
	return &sparse.CSC{Rows: 2, Cols: 3, ColPtr: []int{0, 1, 2, 3}, RowIdx: []int{0, 1, 0}, Val: []float64{1, 3, 2}}
}

// ExampleSampledGramPacked computes the stage-B kernel of the paper:
// the subsampled Gram matrix H = (1/mbar) X_S X_S^T and
// R = (1/mbar) X_S y_S, H kept as its packed upper triangle.
func ExampleSampledGramPacked() {
	x := exampleX()
	y := []float64{1, 1, 1}

	h := mat.NewSymPacked(2)
	r := make([]float64, 2)
	// Sample columns {0, 2}: H = (x0 x0^T + x2 x2^T)/2.
	sparse.SampledGramPacked(x, h, r, y, []int{0, 2}, 0.5, nil)
	fmt.Printf("H = [[%g %g] [%g %g]]\n", h.At(0, 0), h.At(0, 1), h.At(1, 0), h.At(1, 1))
	fmt.Printf("R = %v\n", r)
	// Output:
	// H = [[2.5 0] [0 0]]
	// R = [1.5 0]
}

// ExampleCSC_MulVecT computes predictions X^T w for all samples.
func ExampleCSC_MulVecT() {
	x := exampleX()
	pred := make([]float64, 3)
	x.MulVecT(pred, []float64{1, -1}, nil)
	fmt.Println(pred)
	// Output:
	// [1 -3 2]
}
