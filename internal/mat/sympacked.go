package mat

import (
	"fmt"

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

// sparseMulShare is the support-aware product's crossover: MulVecSparse
// takes the column sweep while nnz(x)·sparseMulShare ≤ n and MulVec
// above. BenchmarkSymPackedMulVecSparse (DESIGN §14) puts the sweep's
// break-even with MulVec near nnz/n = 0.4 at n = 54, 0.35 at 192, 0.3
// at 392 and 0.2 at 784, where its strided half leaves the cache; one
// fifth is at or below all four.
const sparseMulShare = 5

// MulVecSparse computes y = A*x like MulVec, overwriting y (x and y
// must not alias), reading only the columns of A where x is nonzero: y
// is Σ x_j·A[:, j] over those j, in ascending j. On a sparse x —
// a soft-thresholded iterate — that is nnz(x)·n multiply-adds instead
// of n². Above the crossover (sparseMulShare) it runs MulVec.
//
// For a finite A the result is MulVec's bit for bit: each y_i is the
// same left-to-right, ascending-j sum from +0, minus the terms
// A_ij·x_j with x_j = ±0. Such a term is ±0, and adding ±0 to a
// partial sum that is never −0 changes nothing. (An infinite or NaN
// A_ij times a zero x_j is NaN in MulVec and absent here.) It bills
// MulVec's 2n² flops, the count of the paper's cost model.
func (a *SymPacked) MulVecSparse(y, x []float64, c *perf.Cost) {
	n := a.N
	if len(x) != n || len(y) != n {
		panic("mat: SymPacked MulVecSparse dimension mismatch")
	}
	if CountNonzeros(x, 0)*sparseMulShare > n {
		a.MulVec(y, x, c)
		return
	}
	Zero(y)
	for j, xj := range x {
		if xj != 0 {
			a.AddScaledCol(j, xj, y, nil)
		}
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
	// A(i, j), i < j, sits at k in row i's tail, and row i + 1's entry
	// n − i − 1 further on; from row j on, column j is row j's tail.
	k := j
	for i := range y[:j] {
		y[i] += s * a.Data[k]
		k += n - 1 - i
	}
	tail := a.Data[k : k+n-j]
	ys := y[j:][:len(tail)]
	for ii, v := range tail {
		ys[ii] += s * v
	}
	c.AddFlops(int64(2 * n))
}
