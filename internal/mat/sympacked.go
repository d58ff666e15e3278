package mat

import (
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// SymPacked is a symmetric n x n matrix stored in row-major packed
// upper-triangle form: element (i, j) with j >= i lives at
// Data[i*n - i*(i-1)/2 + (j-i)], a total of n(n+1)/2 floats — half the
// dense footprint. This is the wire format of the batched Hessian
// allreduce: every subsampled Gram matrix H = (1/mbar) X I I^T X^T is
// symmetric, so only the upper triangle carries information, and
// shipping it packed halves the bandwidth term of the cost model.
//
// The storage keeps each row's tail (columns i..n-1) contiguous, so the
// Gram accumulation over a CSC column's increasing row indices and the
// row-sweep half of MulVec are both unit-stride.
type SymPacked struct {
	// N is the matrix dimension.
	N int
	// Data holds the packed upper triangle, len n(n+1)/2.
	Data []float64
}

// PackedLen returns the packed storage size n(n+1)/2 of a symmetric
// n x n matrix.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// NewSymPacked allocates a zeroed n x n packed symmetric matrix.
func NewSymPacked(n int) *SymPacked {
	if n < 0 {
		panic("mat: negative dimension")
	}
	return &SymPacked{N: n, Data: make([]float64, PackedLen(n))}
}

// SymPackedOf wraps data (not copied) as an n x n packed symmetric
// matrix.
func SymPackedOf(n int, data []float64) *SymPacked {
	if len(data) != PackedLen(n) {
		panic(fmt.Sprintf("mat: SymPackedOf got %d values for n=%d (want %d)", len(data), n, PackedLen(n)))
	}
	return &SymPacked{N: n, Data: data}
}

// rowStart returns the index of the diagonal element (i, i).
func (a *SymPacked) rowStart(i int) int { return i*a.N - i*(i-1)/2 }

// Dim returns the matrix dimension.
func (a *SymPacked) Dim() int { return a.N }

// At returns element (i, j) of the symmetric matrix.
func (a *SymPacked) At(i, j int) float64 {
	if j < i {
		i, j = j, i
	}
	return a.Data[a.rowStart(i)+j-i]
}

// Set assigns element (i, j) (and, by symmetry, (j, i)).
func (a *SymPacked) Set(i, j int, v float64) {
	if j < i {
		i, j = j, i
	}
	a.Data[a.rowStart(i)+j-i] = v
}

// RowTail returns a view of the stored part of row i: columns i..n-1,
// contiguous in Data. Writing through it updates the matrix.
func (a *SymPacked) RowTail(i int) []float64 {
	return a.Data[a.rowStart(i) : a.rowStart(i)+a.N-i]
}

// RowWindow returns row i indexed by column: element (i, j), j >= i,
// is RowWindow(i)[j]. The window ends where RowTail does, so it always
// lies inside Data; its first i entries belong to earlier rows and must
// not be written through it.
func (a *SymPacked) RowWindow(i int) []float64 {
	o := a.rowStart(i) - i
	return a.Data[o : o+a.N]
}

// Zero clears all entries.
func (a *SymPacked) Zero() { Zero(a.Data) }

// Clone returns a deep copy of a.
func (a *SymPacked) Clone() *SymPacked {
	out := NewSymPacked(a.N)
	copy(out.Data, a.Data)
	return out
}

// MulVec computes y = A*x for the full symmetric operator, overwriting
// y (x and y must not alias). The flop count is the same 2n^2 as the
// dense kernel — packing halves storage and bandwidth, not the matvec
// work.
//
// The kernel is a single unit-stride sweep of the packed triangle: each
// stored element (i, j) is loaded once and contributes to both y[i] and
// y[j], instead of the naive per-row form whose j < i half walks column
// i with a shrinking stride and reads every element twice. Rows go four
// at a time, so four independent y[i] add chains run side by side
// instead of one latency-bound chain; each y[j] they scatter to takes
// the four rows' contributions in ascending row order. The
// contributions to each y[i] therefore still land in ascending-j order
// — the j < i ones scattered by earlier rows, then row i's tail left to
// right — so the summation association matches Dense.MulVec exactly and
// a packed matrix and its dense expansion produce bit-identical
// products.
func (a *SymPacked) MulVec(y, x []float64, c *perf.Cost) {
	n := a.N
	if len(x) != n || len(y) != n {
		panic("mat: SymPacked MulVec dimension mismatch")
	}
	Zero(y)
	base, i := 0, 0
	for ; i+4 <= n; i += 4 {
		l := n - i
		t0 := a.Data[base : base+l]
		t1 := a.Data[base+l : base+2*l-1]
		t2 := a.Data[base+2*l-1 : base+3*l-3]
		t3 := a.Data[base+3*l-3 : base+4*l-6]
		base += 4*l - 6
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		// The 4x4 diagonal block, each y[i+q] in ascending-j order: row i
		// scatters to i+1..i+3 before row i+1's own terms, and so on.
		y0 := y[i] + t0[0]*x0
		y1 := y[i+1] + t0[1]*x0
		y2 := y[i+2] + t0[2]*x0
		y3 := y[i+3] + t0[3]*x0
		y0 += t0[1] * x1
		y0 += t0[2] * x2
		y0 += t0[3] * x3
		y1 += t1[0] * x1
		y2 += t1[1] * x1
		y3 += t1[2] * x1
		y1 += t1[1] * x2
		y1 += t1[2] * x3
		y2 += t2[0] * x2
		y3 += t2[1] * x2
		y2 += t2[1] * x3
		y3 += t3[0] * x3
		// Columns past the block: four gather chains, one scatter each.
		// Every slice is cut to len(xs), so the loop has no bounds checks.
		xs := x[i+4:]
		m := len(xs)
		ys := y[i+4:][:m]
		t0, t1, t2, t3 = t0[4:][:m], t1[3:][:m], t2[2:][:m], t3[1:][:m]
		for j, xj := range xs {
			v0, v1, v2, v3 := t0[j], t1[j], t2[j], t3[j]
			y0 += v0 * xj
			y1 += v1 * xj
			y2 += v2 * xj
			y3 += v3 * xj
			yj := ys[j]
			yj += v0 * x0
			yj += v1 * x1
			yj += v2 * x2
			yj += v3 * x3
			ys[j] = yj
		}
		y[i], y[i+1], y[i+2], y[i+3] = y0, y1, y2, y3
	}
	for ; i < n; i++ {
		tail := a.Data[base : base+n-i]
		base += n - i
		xi := x[i]
		// y[i] already holds the j < i contributions scattered by earlier
		// rows; continue the same left-associated sum with j = i..n-1.
		yi := y[i] + tail[0]*xi
		for jj := 1; jj < len(tail); jj++ {
			v := tail[jj]
			yi += v * x[i+jj]
			y[i+jj] += v * xi
		}
		y[i] = yi
	}
	c.AddFlops(int64(2 * n * n))
}

// AddScaledCol computes y += s * A[:, j], the symmetric-column axpy the
// coordinate-descent inner solver needs.
func (a *SymPacked) AddScaledCol(j int, s float64, y []float64, c *perf.Cost) {
	n := a.N
	if j < 0 || j >= n || len(y) != n {
		panic("mat: SymPacked AddScaledCol dimension mismatch")
	}
	for i := 0; i < j; i++ {
		y[i] += s * a.Data[a.rowStart(i)+j-i]
	}
	tail := a.Data[a.rowStart(j) : a.rowStart(j)+n-j]
	for ii, v := range tail {
		y[j+ii] += s * v
	}
	c.AddFlops(int64(2 * n))
}

// CholeskyPacked computes the packed upper-triangular factor U with
// A = U^T U for a symmetric positive definite packed matrix. The factor
// is returned in packed storage (the strict lower triangle of U is zero
// by construction and not stored). Flops charged: n^3/3, as for the
// dense factorization.
//
// The sweep is left-looking by row: row i of U starts as row i of A and
// subtracts rank-1 contributions of the finished rows k < i in one
// unit-stride pass each, then scales by the pivot — no strided At/Set
// walks. Every element still receives its k = 0..i-1 subtractions in
// ascending order and the same sqrt/divide, so the factor is bit
// identical to the textbook column-major form, including which diagonal
// trips ErrNotSPD first (diagonals are checked in ascending index order
// either way).
func CholeskyPacked(a *SymPacked, c *perf.Cost) (*SymPacked, error) {
	n := a.N
	u := NewSymPacked(n)
	for i := 0; i < n; i++ {
		rs := u.rowStart(i)
		ui := u.Data[rs : rs+n-i]
		copy(ui, a.Data[rs:rs+n-i])
		for k := 0; k < i; k++ {
			// Row k's entries for columns i..n-1 sit at offset i-k of its
			// tail, contiguous; uki = U(k, i) multiplies all of them.
			ks := u.rowStart(k)
			rk := u.Data[ks+i-k : ks+n-k]
			uki := rk[0]
			for jj := range ui {
				ui[jj] -= uki * rk[jj]
			}
		}
		s := ui[0]
		if s <= 0 || math.IsNaN(s) {
			return nil, ErrNotSPD
		}
		d := math.Sqrt(s)
		ui[0] = d
		for jj := 1; jj < len(ui); jj++ {
			ui[jj] /= d
		}
	}
	c.AddFlops(int64(n) * int64(n) * int64(n) / 3)
	return u, nil
}

// CholeskySolvePacked solves A x = b given the packed Cholesky factor U
// of A = U^T U, returning a fresh x (b is not modified).
func CholeskySolvePacked(u *SymPacked, b []float64, c *perf.Cost) []float64 {
	n := u.N
	if len(b) != n {
		panic("mat: CholeskySolvePacked dimension mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	// Forward: U^T z = b (U^T is lower triangular).
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= u.At(k, i) * x[k]
		}
		x[i] = s / u.At(i, i)
	}
	// Backward: U x = z, sweeping each row's contiguous tail.
	for i := n - 1; i >= 0; i-- {
		tail := u.RowTail(i)
		s := x[i]
		for kk := 1; kk < len(tail); kk++ {
			s -= tail[kk] * x[i+kk]
		}
		x[i] = s / tail[0]
	}
	c.AddFlops(int64(2 * n * n))
	return x
}

// SolveSPDPacked solves A x = b for a symmetric positive definite
// packed matrix.
func SolveSPDPacked(a *SymPacked, b []float64, c *perf.Cost) ([]float64, error) {
	u, err := CholeskyPacked(a, c)
	if err != nil {
		return nil, err
	}
	return CholeskySolvePacked(u, b, c), nil
}
