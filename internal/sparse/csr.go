package sparse

// CSR is a compressed sparse row matrix, the row view CSC.ToCSR builds
// for the feature-partitioned solvers. Row i holds its non-zero
// column indices in ColIdx[RowPtr[i]:RowPtr[i+1]] (strictly increasing)
// and the matching values in Val.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Nnz returns the number of stored non-zeros.
func (a *CSR) Nnz() int { return len(a.Val) }

// Row returns views (shared storage) of row i's column indices and values.
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}
