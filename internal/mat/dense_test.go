package mat

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpcgo/rcsfista/internal/perf"
)

func TestNewDense(t *testing.T) {
	a := NewDense(2, 3)
	if a.Rows != 2 || a.Cols != 3 || len(a.Data) != 6 {
		t.Fatalf("NewDense shape: %+v", a)
	}
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 || a.Data[5] != 5 {
		t.Fatal("Set/At row-major layout broken")
	}
}

func TestDenseOfValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	DenseOf(2, 2, []float64{1, 2, 3})
}

func TestRowIsView(t *testing.T) {
	a := NewDense(2, 2)
	r := a.Row(1)
	r[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row is not a view")
	}
}

func TestMulVec(t *testing.T) {
	a := DenseOf(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	a.MulVec(y, []float64{1, 0, -1}, nil)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecTransposeConsistencyProperty(t *testing.T) {
	// <Ax, y> == <x, A^T y> for all A, x, y.
	f := func(data [12]float64, x [4]float64, y [3]float64) bool {
		for _, v := range data {
			if math.Abs(v) > 1e50 {
				return true
			}
		}
		a := DenseOf(3, 4, append([]float64(nil), data[:]...))
		at := NewDense(4, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		ax := make([]float64, 3)
		a.MulVec(ax, x[:], nil)
		aty := make([]float64, 4)
		at.MulVec(aty, y[:], nil)
		lhs := Dot(ax, y[:], nil)
		rhs := Dot(x[:], aty, nil)
		return almostEq(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	a := DenseOf(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDenseDimPanics(t *testing.T) {
	a := NewDense(2, 3)
	cases := []func(){
		func() { a.MulVec(make([]float64, 2), make([]float64, 2), nil) },
		func() { a.AddScaledCol(3, 1, make([]float64, 2), nil) },
		func() { a.AddScaledCol(0, 1, make([]float64, 3), nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDenseFlopAccounting(t *testing.T) {
	a := NewDense(4, 5)
	x := make([]float64, 5)
	y := make([]float64, 4)
	var c perf.Cost
	a.MulVec(y, x, &c)
	if c.Flops != 2*4*5 {
		t.Fatalf("MulVec charged %d flops, want 40", c.Flops)
	}
}
