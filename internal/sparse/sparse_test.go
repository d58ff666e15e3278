package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// randomCSC builds a random r x c matrix with the given density.
func randomCSC(r, c int, density float64, seed uint64) *CSC {
	g := rng.New(seed)
	a := &CSC{Rows: r, Cols: c, ColPtr: make([]int, c+1)}
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			if g.Float64() < density {
				a.RowIdx = append(a.RowIdx, i)
				a.Val = append(a.Val, g.NormFloat64())
			}
		}
		a.ColPtr[j+1] = len(a.Val)
	}
	return a
}

// toDense expands a into full row-major storage.
func toDense(a *CSC) *mat.Dense {
	d := mat.NewDense(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.Col(j)
		for k, r := range rows {
			d.Set(r, j, vals[k])
		}
	}
	return d
}

func TestDensity(t *testing.T) {
	a := randomCSC(20, 30, 0.25, 1)
	d := a.Density()
	if d <= 0.1 || d >= 0.45 {
		t.Fatalf("density %g far from 0.25", d)
	}
	empty := &CSC{ColPtr: []int{0}}
	if empty.Density() != 0 {
		t.Fatal("empty density != 0")
	}
}

func TestCSCMulVecAgainstDense(t *testing.T) {
	a := randomCSC(7, 11, 0.4, 2)
	d := toDense(a)
	tvec := make([]float64, 11)
	for i := range tvec {
		tvec[i] = float64(i) - 5
	}
	got := make([]float64, 7)
	a.MulVec(got, tvec, nil)
	want := make([]float64, 7)
	d.MulVec(want, tvec, nil)
	for i := range got {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCSCMulVecTAgainstDense(t *testing.T) {
	a := randomCSC(7, 11, 0.4, 3)
	d := toDense(a)
	w := make([]float64, 7)
	for i := range w {
		w[i] = float64(i*i) - 3
	}
	got := make([]float64, 11)
	a.MulVecT(got, w, nil)
	want := make([]float64, 11)
	for i := 0; i < 7; i++ {
		for j := range want {
			want[j] += d.At(i, j) * w[i]
		}
	}
	for i := range got {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("MulVecT[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMulVecAccumulates(t *testing.T) {
	a := randomCSC(4, 4, 1, 4)
	y := []float64{1, 1, 1, 1}
	x := make([]float64, 4)
	a.MulVec(y, x, nil) // x = 0: y unchanged
	for _, v := range y {
		if v != 1 {
			t.Fatal("MulVec with zero x modified y")
		}
	}
}

func TestColSlice(t *testing.T) {
	a := randomCSC(6, 10, 0.5, 5)
	s := a.ColSlice(3, 7)
	if s.Rows != 6 || s.Cols != 4 {
		t.Fatalf("slice shape %dx%d", s.Rows, s.Cols)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 6; i++ {
			if s.At(i, j) != a.At(i, j+3) {
				t.Fatalf("slice (%d,%d) mismatch", i, j)
			}
		}
	}
	// Empty slice is fine.
	e := a.ColSlice(4, 4)
	if e.Cols != 0 || e.Nnz() != 0 {
		t.Fatal("empty slice not empty")
	}
}

func TestColSlicePartitionCoversMatrix(t *testing.T) {
	a := randomCSC(5, 13, 0.6, 6)
	x := make([]float64, 5)
	for i := range x {
		x[i] = float64(i + 1)
	}
	full := make([]float64, 13)
	a.MulVecT(full, x, nil)
	// Concatenating per-block MulVecT must equal the full product.
	bounds := []int{0, 4, 9, 13}
	var got []float64
	for b := 0; b+1 < len(bounds); b++ {
		blk := a.ColSlice(bounds[b], bounds[b+1])
		part := make([]float64, blk.Cols)
		blk.MulVecT(part, x, nil)
		got = append(got, part...)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("partitioned product differs at %d", i)
		}
	}
}

// TestCSCCSRRoundtrip: ToCSR keeps the shape and every stored entry,
// each row's column indices strictly increasing, so reading the rows
// back visits exactly the matrix's non-zeros.
func TestCSCCSRRoundtrip(t *testing.T) {
	a := randomCSC(9, 7, 0.35, 7)
	r := a.ToCSR()
	if r.Rows != a.Rows || r.Cols != a.Cols || r.Nnz() != a.Nnz() {
		t.Fatal("roundtrip changed shape")
	}
	for i := 0; i < r.Rows; i++ {
		cols, vals := r.Row(i)
		for k, j := range cols {
			if k > 0 && cols[k-1] >= j {
				t.Fatalf("row %d: columns %v not strictly increasing", i, cols)
			}
			if a.At(i, j) != vals[k] {
				t.Fatalf("roundtrip (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := randomCSC(3, 3, 1, 11)
	b := a.Clone()
	b.Val[0] = 999
	if a.Val[0] == 999 {
		t.Fatal("Clone shares values")
	}
}

func TestSampledGramAgainstDense(t *testing.T) {
	a := randomCSC(6, 20, 0.5, 12)
	y := make([]float64, 20)
	for i := range y {
		y[i] = float64(i%5) - 2
	}
	cols := []int{1, 3, 3, 7, 19} // duplicates allowed
	scale := 0.25

	h := mat.NewSymPacked(6)
	r := make([]float64, 6)
	SampledGramPacked(a, h, r, y, cols, scale, nil)

	// Dense reference.
	want := mat.NewDense(6, 6)
	wantR := make([]float64, 6)
	for _, j := range cols {
		col := make([]float64, 6)
		for i := 0; i < 6; i++ {
			col[i] = a.At(i, j)
		}
		for p := 0; p < 6; p++ {
			for q := 0; q < 6; q++ {
				want.Set(p, q, want.At(p, q)+scale*col[p]*col[q])
			}
			wantR[p] += scale * y[j] * col[p]
		}
	}
	for p := 0; p < 6; p++ {
		for q := 0; q < 6; q++ {
			if diff := math.Abs(h.At(p, q) - want.At(p, q)); diff > 1e-12 {
				t.Fatalf("SampledGramPacked H(%d,%d) diff %g", p, q, diff)
			}
		}
	}
	for i := range r {
		if !almostEq(r[i], wantR[i]) {
			t.Fatalf("SampledGramPacked R[%d] = %g want %g", i, r[i], wantR[i])
		}
	}
}

func TestSampledGramSymmetricPSDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomCSC(5, 15, 0.6, seed)
		y := make([]float64, 15)
		h := mat.NewSymPacked(5)
		r := make([]float64, 5)
		g := rng.New(seed)
		cols := g.SampleWithoutReplacement(15, 6)
		SampledGramPacked(a, h, r, y, cols, 1.0/6, nil)
		// Symmetric: a packed At reads one stored element for both
		// orders.
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if !almostEq(h.At(i, j), h.At(j, i)) {
					return false
				}
			}
		}
		// PSD: x^T H x >= 0 for a few random x.
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, 5)
			for i := range x {
				x[i] = g.NormFloat64()
			}
			hx := make([]float64, 5)
			h.MulVec(hx, x, nil)
			if mat.Dot(x, hx, nil) < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFullGramEqualsGramApply(t *testing.T) {
	a := randomCSC(5, 30, 0.5, 13)
	y := make([]float64, 30)
	g := rng.New(99)
	for i := range y {
		y[i] = g.NormFloat64()
	}
	scale := 1.0 / 30
	h := mat.NewSymPacked(5)
	r := make([]float64, 5)
	FullGramPacked(a, h, r, y, scale, nil)

	w := make([]float64, 5)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	// grad via explicit H: H w - R.
	want := make([]float64, 5)
	h.MulVec(want, w, nil)
	mat.Axpy(-1, r, want, nil)
	// grad via matrix-free GramApply with shift = scale * A y.
	shift := make([]float64, 5)
	a.MulVec(shift, y, nil)
	mat.Scal(scale, shift, nil)
	got := make([]float64, 5)
	scratch := make([]float64, 30)
	GramApply(a, got, w, shift, scratch, scale, nil)
	for i := range got {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("GramApply[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

// TestSampledGramFlopAccounting: on dense columns (nnz per column = 6,
// so the dense-panel path) the packed kernel bills nz(nz+1) + 2nz per
// sampled column.
func TestSampledGramFlopAccounting(t *testing.T) {
	a := randomCSC(6, 10, 1, 14)
	y := make([]float64, 10)
	h := mat.NewSymPacked(6)
	r := make([]float64, 6)
	var c perf.Cost
	SampledGramPacked(a, h, r, y, []int{0, 1}, 1, &c)
	want := int64(2 * (6*7 + 2*6))
	if c.Flops != want {
		t.Fatalf("flops = %d, want %d", c.Flops, want)
	}
}

func TestDimensionPanics(t *testing.T) {
	a := randomCSC(4, 6, 0.5, 15)
	fns := []func(){
		func() { a.MulVec(make([]float64, 3), make([]float64, 6), nil) },
		func() { a.MulVecT(make([]float64, 5), make([]float64, 4), nil) },
		func() { a.ColSlice(-1, 2) },
		func() { a.ColSlice(2, 9) },
		func() { GramApply(a, make([]float64, 4), make([]float64, 4), nil, make([]float64, 5), 1, nil) },
	}
	for i, fn := range fns {
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

func almostEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-10 || d <= 1e-10*math.Max(math.Abs(a), math.Abs(b))
}

// TestResidualGradMatchesThreePasses: the one-sweep data pass equals,
// bit for bit and in its charge, the three passes a rank's data pass
// runs over its ColSlice block — MulVecT, Axpy of −y, MulVec — with the
// squared residuals summed in column order. Some labels equal their
// prediction, so some residuals are exactly zero and skipped.
func TestResidualGradMatchesThreePasses(t *testing.T) {
	a := randomCSC(9, 40, 0.4, 11)
	g := rng.New(12)
	w := make([]float64, a.Rows)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	y := make([]float64, a.Cols)
	a.MulVecT(y, w, nil)
	for j := range y {
		if j%3 != 0 {
			y[j] += g.NormFloat64()
		}
	}
	for _, r := range [][2]int{{0, 40}, {0, 13}, {13, 27}, {27, 40}, {5, 5}} {
		lo, hi := r[0], r[1]
		blk := a.ColSlice(lo, hi)
		var wantCost, gotCost perf.Cost
		resid := make([]float64, blk.Cols)
		blk.MulVecT(resid, w, &wantCost)
		mat.Axpy(-1, y[lo:hi], resid, &wantCost)
		want := make([]float64, a.Rows)
		blk.MulVec(want, resid, &wantCost)
		var wantLoss float64
		for _, v := range resid {
			wantLoss += v * v
		}
		got := make([]float64, a.Rows)
		gotLoss := a.ResidualGrad(got, w, y, lo, hi, &gotCost)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || gotCost != wantCost {
			t.Fatalf("[%d,%d): loss %.17g cost %+v, three passes %.17g cost %+v", lo, hi, gotLoss, gotCost, wantLoss, wantCost)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("[%d,%d): g[%d] = %.17g, three passes %.17g", lo, hi, i, got[i], want[i])
			}
		}
	}
}
