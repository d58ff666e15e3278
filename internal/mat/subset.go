package mat

// Index-subset support for the active-set reduced subproblems: the
// screening engine works on the |A| x |A| principal submatrix of the
// Hessian and the A-indexed slices of the iterate vectors, where A is
// the sorted working set of coordinates the l1 KKT conditions cannot
// rule out. Gather/Scatter move vectors between the full and reduced
// coordinate spaces; the reduced Hessian is filled directly by
// sparse.SampledGramPackedRows, so the FISTA recurrence runs unchanged
// on the reduced Hessian.

// Gather writes dst[i] = src[idx[i]]. dst and idx must have equal
// length; idx entries index into src.
func Gather(dst, src []float64, idx []int) {
	if len(dst) != len(idx) {
		panic("mat: Gather length mismatch")
	}
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// Scatter writes dst[idx[i]] = src[i], the inverse of Gather onto the
// selected coordinates; the rest of dst is untouched.
func Scatter(dst, src []float64, idx []int) {
	if len(src) != len(idx) {
		panic("mat: Scatter length mismatch")
	}
	for i, j := range idx {
		dst[j] = src[i]
	}
}
