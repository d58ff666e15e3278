package prox

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

func testMatrix(d, m int, seed uint64) (*sparse.CSC, []float64) {
	g := rng.New(seed)
	x := &sparse.CSC{Rows: d, Cols: m, ColPtr: make([]int, m+1)}
	for j := 0; j < m; j++ {
		for i := 0; i < d; i++ {
			if g.Float64() < 0.6 {
				x.RowIdx = append(x.RowIdx, i)
				x.Val = append(x.Val, g.NormFloat64())
			}
		}
		x.ColPtr[j+1] = len(x.Val)
	}
	y := make([]float64, m)
	for i := range y {
		y[i] = g.NormFloat64()
	}
	return x, y
}

func TestLeastSquaresValue(t *testing.T) {
	// 1x2 matrix X = [1 2] (d=1, m=2), y = [1, 1], w = [2]:
	// predictions [2, 4], residuals [1, 3], f = (1+9)/(2*2) = 2.5.
	x := &sparse.CSC{Rows: 1, Cols: 2, ColPtr: []int{0, 1, 2}, RowIdx: []int{0, 0}, Val: []float64{1, 2}}
	got := LeastSquares(x, []float64{1, 1}, []float64{2}, nil)
	if got != 2.5 {
		t.Fatalf("LeastSquares = %g, want 2.5", got)
	}
}

func TestObjectiveComposition(t *testing.T) {
	x, y := testMatrix(5, 12, 1)
	o := NewObjective(x, y, L1{Lambda: 0.3})
	w := []float64{1, -2, 0, 0.5, 0}
	want := LeastSquares(x, y, w, nil) + 0.3*(1+2+0.5)
	if got := o.F(w, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F = %g, want %g", got, want)
	}
	if got := o.Smooth(w, nil); math.Abs(got-LeastSquares(x, y, w, nil)) > 1e-15 {
		t.Fatalf("Smooth = %g", got)
	}
}

func TestGradientAgainstFiniteDifferences(t *testing.T) {
	x, y := testMatrix(6, 20, 2)
	o := NewObjective(x, y, Zero{})
	g := rng.New(3)
	w := make([]float64, 6)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	grad := make([]float64, 6)
	o.Gradient(grad, w, nil)
	const h = 1e-6
	for i := range w {
		wp := append([]float64(nil), w...)
		wm := append([]float64(nil), w...)
		wp[i] += h
		wm[i] -= h
		fd := (o.Smooth(wp, nil) - o.Smooth(wm, nil)) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %g, finite diff %g", i, grad[i], fd)
		}
	}
}

func TestGradientZeroAtLeastSquaresSolution(t *testing.T) {
	// For y = X^T w exactly, the gradient at w is zero.
	x, _ := testMatrix(4, 10, 4)
	w := []float64{1, -1, 2, 0.5}
	y := make([]float64, 10)
	x.MulVecT(y, w, nil)
	o := NewObjective(x, y, Zero{})
	grad := make([]float64, 4)
	o.Gradient(grad, w, nil)
	if n := mat.Nrm2(grad, nil); n > 1e-12 {
		t.Fatalf("gradient at interpolating w: ||g|| = %g", n)
	}
	if f := o.Smooth(w, nil); f > 1e-20 {
		t.Fatalf("loss at interpolating w: %g", f)
	}
}

// TestObjectiveConcurrentReaders: an Objective keeps no scratch, so
// goroutines sharing one read F and ∇f at their own iterates with the
// bits a lone caller gets (under -race, a shared buffer would also be
// reported).
func TestObjectiveConcurrentReaders(t *testing.T) {
	x, y := testMatrix(6, 30, 7)
	o := NewObjective(x, y, L1{Lambda: 0.1})
	ws, fs, grads := make([][]float64, 4), make([]float64, 4), make([][]float64, 4)
	g := rng.New(8)
	for i := range ws {
		ws[i], grads[i] = make([]float64, 6), make([]float64, 6)
		for j := range ws[i] {
			ws[i][j] = g.NormFloat64()
		}
		fs[i] = o.F(ws[i], nil)
		o.Gradient(grads[i], ws[i], nil)
	}
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grad := make([]float64, 6)
			for range 50 {
				o.Gradient(grad, ws[i], nil)
				if f := o.F(ws[i], nil); math.Float64bits(f) != math.Float64bits(fs[i]) || !slices.Equal(grad, grads[i]) {
					t.Errorf("reader %d: F %.17g, ∇f %v; alone %.17g, %v", i, f, grad, fs[i], grads[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEstimateLipschitzAgainstDense(t *testing.T) {
	// For a small matrix, compare the power-iteration estimate against
	// the largest eigenvalue obtained by (dense) power iteration with
	// many steps on the explicit Gram matrix.
	x, _ := testMatrix(5, 40, 5)
	m := float64(x.Cols)
	got := EstimateLipschitz(x, 100, nil, nil)

	// Explicit Gram.
	h := mat.NewSymPacked(5)
	r := make([]float64, 5)
	sparse.FullGramPacked(x, h, r, make([]float64, 40), 1/m, nil)
	// Dense power iteration.
	v := []float64{1, 0.9, 0.8, 0.7, 0.6}
	hv := make([]float64, 5)
	var lam float64
	for it := 0; it < 500; it++ {
		h.MulVec(hv, v, nil)
		lam = mat.Nrm2(hv, nil)
		for i := range v {
			v[i] = hv[i] / lam
		}
	}
	if math.Abs(got-lam) > 1e-6*lam {
		t.Fatalf("Lipschitz estimate %g vs dense %g", got, lam)
	}
}

func TestEstimateLipschitzZeroMatrix(t *testing.T) {
	x := &sparse.CSC{Rows: 3, Cols: 5, ColPtr: make([]int, 6)}
	if got := EstimateLipschitz(x, 10, nil, nil); got != 0 {
		t.Fatalf("zero matrix L = %g", got)
	}
}

func TestObjectiveSampleCountMismatchPanics(t *testing.T) {
	x, _ := testMatrix(3, 5, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewObjective(x, make([]float64, 4), Zero{})
}
