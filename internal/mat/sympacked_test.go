package mat

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// symTestMatrix builds a deterministic symmetric n x n matrix with
// distinct off-diagonal entries and a dominant diagonal.
func symTestMatrix(n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Sin(float64(3*i+7*j+1)) / 4
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, i, float64(n)+math.Cos(float64(i)))
	}
	return a
}

// packDense packs the upper triangle of a square dense matrix (the
// lower triangle is ignored), and unpack expands a packed matrix into
// full storage. Neither does arithmetic, so the packed kernels can be
// held bit for bit to the dense ones through them.
func packDense(a *Dense) *SymPacked {
	out := NewSymPacked(a.Rows)
	for i := 0; i < a.Rows; i++ {
		copy(out.RowTail(i), a.Row(i)[i:])
	}
	return out
}

func unpack(a *SymPacked) *Dense {
	out := NewDense(a.N, a.N)
	for i := 0; i < a.N; i++ {
		for jj, v := range a.RowTail(i) {
			out.Set(i, i+jj, v)
			out.Set(i+jj, i, v)
		}
	}
	return out
}

func testVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(2*i + 1))
	}
	return x
}

func TestPackedLen(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 2: 3, 5: 15, 54: 1485} {
		if got := PackedLen(n); got != want {
			t.Fatalf("PackedLen(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSymPackedLayoutAndAccessors(t *testing.T) {
	const n = 7
	a := NewSymPacked(n)
	// Fill through Set with a value encoding (min, max) of the index
	// pair, writing sometimes below and sometimes above the diagonal.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(100*min(i, j)+max(i, j)))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := float64(100*min(i, j) + max(i, j))
			if got := a.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	// RowTail is a writable view of columns i..n-1.
	for i := 0; i < n; i++ {
		tail := a.RowTail(i)
		if len(tail) != n-i {
			t.Fatalf("RowTail(%d) length %d, want %d", i, len(tail), n-i)
		}
		for jj := range tail {
			if tail[jj] != a.At(i, i+jj) {
				t.Fatalf("RowTail(%d)[%d] != At(%d,%d)", i, jj, i, i+jj)
			}
		}
	}
	a.RowTail(2)[3] = -1
	if a.At(2, 5) != -1 || a.At(5, 2) != -1 {
		t.Fatal("RowTail write did not land in the matrix")
	}
	// Dense expansion and re-packing round-trip.
	b := packDense(unpack(a))
	for i, v := range a.Data {
		if b.Data[i] != v {
			t.Fatal("unpack/packDense round-trip changed values")
		}
	}
	// SymPackedOf wraps without copying.
	c := SymPackedOf(a.N, a.Data)
	c.Set(0, 0, 42)
	if a.At(0, 0) != 42 {
		t.Fatal("SymPackedOf copied instead of wrapping")
	}
}

func TestSymPackedMulVecBitIdenticalToDense(t *testing.T) {
	for _, n := range []int{1, 2, 5, 13} {
		dense := symTestMatrix(n)
		packed := packDense(dense)
		x := testVector(n)
		yd := make([]float64, n)
		yp := make([]float64, n)
		dense.MulVec(yd, x, nil)
		packed.MulVec(yp, x, nil)
		for i := range yd {
			if yd[i] != yp[i] {
				t.Fatalf("n=%d: MulVec differs at %d: dense %v packed %v (not bitwise equal)",
					n, i, yd[i], yp[i])
			}
		}
	}
}

func TestSymPackedAddScaledColMatchesDense(t *testing.T) {
	const n = 9
	dense := symTestMatrix(n)
	packed := packDense(dense)
	for j := 0; j < n; j++ {
		yd := testVector(n)
		yp := testVector(n)
		dense.AddScaledCol(j, 1.5, yd, nil)
		packed.AddScaledCol(j, 1.5, yp, nil)
		for i := range yd {
			if yd[i] != yp[i] {
				t.Fatalf("col %d differs at %d: %v vs %v", j, i, yd[i], yp[i])
			}
		}
	}
}

func TestSymPackedFlopCharges(t *testing.T) {
	const n = 6
	a := packDense(symTestMatrix(n))
	x := testVector(n)
	y := make([]float64, n)

	var c perf.Cost
	a.MulVec(y, x, &c)
	if c.Flops != 2*n*n {
		t.Fatalf("MulVec flops = %d, want %d", c.Flops, 2*n*n)
	}
	c = perf.Cost{}
	a.AddScaledCol(2, 1, y, &c)
	if c.Flops != 2*n {
		t.Fatalf("AddScaledCol flops = %d, want %d", c.Flops, 2*n)
	}
}

func TestSymPackedCloneAndZero(t *testing.T) {
	a := packDense(symTestMatrix(4))
	b := a.Clone()
	b.Set(1, 2, 99)
	if a.At(1, 2) == 99 {
		t.Fatal("Clone shares storage")
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero left a non-zero entry")
		}
	}
}
