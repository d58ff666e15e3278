// Package sparse implements the sparse matrix kernels the paper's
// solvers rely on. The data matrix X is d x m (rows = features,
// columns = samples, paper Section 2.1) and is stored in compressed
// sparse column (CSC) form, because every stage of RC-SFISTA accesses X
// by sample: column sampling (stage A of Figure 1), the sampled Gram
// products H = (1/mbar) X I I^T X^T and R = (1/mbar) X I I^T y
// (stage B), and the full-gradient products X (X^T w).
//
// The sampled Gram is accumulated in one format, the packed upper
// triangle (mat.SymPacked), along two paths that leave the same bits: a
// column-at-a-time sweep over each column's sparsity pattern, and, for a
// block that stores every entry (CSC.Full), a gather of the sampled
// columns into a dense panel that mat.SymPacked.PanelUpdate applies in
// register tiles (grampanel.go). Which one runs depends only on Full.
//
// A compressed sparse row (CSR) view serves the solvers that partition
// X by feature. Kernels charge their exact flop counts into an optional
// *perf.Cost, mirroring package mat.
package sparse

import (
	"github.com/hpcgo/rcsfista/internal/perf"
)

// CSC is a compressed sparse column matrix. Column j holds its non-zero
// row indices in RowIdx[ColPtr[j]:ColPtr[j+1]] (strictly increasing) and
// the matching values in Val.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Val        []float64
}

// Nnz returns the number of stored non-zeros.
func (a *CSC) Nnz() int { return len(a.Val) }

// Density returns nnz / (rows*cols), the fill-in factor f of the paper.
func (a *CSC) Density() float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.Nnz()) / (float64(a.Rows) * float64(a.Cols))
}

// Full reports whether a stores every entry. Row indices are strictly
// increasing within a column, so every column of a full block reads
// rows 0..Rows-1. It selects the dense-panel Gram path (grampanel.go).
func (a *CSC) Full() bool { return a.Nnz() == a.Rows*a.Cols }

// Col returns views (shared storage) of column j's row indices and values.
func (a *CSC) Col(j int) (rows []int, vals []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[lo:hi], a.Val[lo:hi]
}

// At returns element (i, j) by binary search over column j.
func (a *CSC) At(i, j int) float64 {
	rows, vals := a.Col(j)
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case rows[mid] < i:
			lo = mid + 1
		case rows[mid] > i:
			hi = mid
		default:
			return vals[mid]
		}
	}
	return 0
}

// MulVecT computes t = A^T w, with t of length Cols and w of length
// Rows. For the paper's X this is the vector of predictions x_i^T w.
func (a *CSC) MulVecT(t, w []float64, c *perf.Cost) {
	if len(t) != a.Cols || len(w) != a.Rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.Col(j)
		var s float64
		for k, r := range rows {
			s += vals[k] * w[r]
		}
		t[j] = s
	}
	c.AddFlops(int64(2 * a.Nnz()))
}

// MulVec computes y += A t (accumulating), with y of length Rows and t
// of length Cols. Callers that need y = A t must zero y first.
func (a *CSC) MulVec(y, t []float64, c *perf.Cost) {
	if len(y) != a.Rows || len(t) != a.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	for j := 0; j < a.Cols; j++ {
		tj := t[j]
		if tj == 0 {
			continue
		}
		rows, vals := a.Col(j)
		for k, r := range rows {
			y[r] += vals[k] * tj
		}
	}
	c.AddFlops(int64(2 * a.Nnz()))
}

// ResidualGrad is the least-squares data pass over columns [lo, hi) in
// one sweep: for each column j, s_j = x_jᵀw − y_j, then g += s_j·x_j,
// and it returns Σ s_j². y is indexed like the columns. Its bits are
// those of the three-pass form over ColSlice(lo, hi) — MulVecT, Axpy of
// −y, MulVec into g — and of the squared residuals summed in column
// order, and so is its charge; g is accumulated, not overwritten.
func (a *CSC) ResidualGrad(g, w, y []float64, lo, hi int, c *perf.Cost) float64 {
	if len(g) != a.Rows || len(w) != a.Rows || len(y) != a.Cols || lo < 0 || hi > a.Cols || lo > hi {
		panic("sparse: ResidualGrad dimension mismatch")
	}
	var loss float64
	for j := lo; j < hi; j++ {
		rows, vals := a.Col(j)
		var s float64
		for k, r := range rows {
			s += vals[k] * w[r]
		}
		s += -1 * y[j]
		loss += s * s
		if s == 0 {
			continue
		}
		for k, r := range rows {
			g[r] += vals[k] * s
		}
	}
	nnz := int64(a.ColPtr[hi] - a.ColPtr[lo])
	c.AddFlops(4*nnz + 2*int64(hi-lo))
	return loss
}

// ColSlice returns a view of columns [lo, hi) as a CSC matrix sharing
// storage with a. Row dimension is preserved. This is how a column
// (sample) partition is assigned to a processor.
func (a *CSC) ColSlice(lo, hi int) *CSC {
	if lo < 0 || hi > a.Cols || lo > hi {
		panic("sparse: ColSlice out of range")
	}
	ptr := make([]int, hi-lo+1)
	base := a.ColPtr[lo]
	for j := lo; j <= hi; j++ {
		ptr[j-lo] = a.ColPtr[j] - base
	}
	return &CSC{
		Rows:   a.Rows,
		Cols:   hi - lo,
		ColPtr: ptr,
		RowIdx: a.RowIdx[base:a.ColPtr[hi]],
		Val:    a.Val[base:a.ColPtr[hi]],
	}
}

// ToCSR converts to CSR form.
func (a *CSC) ToCSR() *CSR {
	r := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, a.Nnz()),
		Val:    make([]float64, a.Nnz()),
	}
	for _, ri := range a.RowIdx {
		r.RowPtr[ri+1]++
	}
	for i := 0; i < a.Rows; i++ {
		r.RowPtr[i+1] += r.RowPtr[i]
	}
	next := append([]int(nil), r.RowPtr[:a.Rows]...)
	for j := 0; j < a.Cols; j++ {
		rows, vals := a.Col(j)
		for k, ri := range rows {
			p := next[ri]
			r.ColIdx[p] = j
			r.Val[p] = vals[k]
			next[ri]++
		}
	}
	return r
}

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	return &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
}
