package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// SampledGramPackedRows is SampledGramPacked restricted to an active
// row set: it accumulates only the |A| x |A| principal submatrix of the
// sampled Gram,
//
//	H[p][q] += scale * sum_{j in cols} x_j[act[p]] * x_j[act[q]],
//
// into packed upper storage h (which must be |A| x |A|), while R keeps
// FULL length a.Rows,
//
//	R += scale * sum_{j in cols} y_j * x_j,
//
// so the engine's exact KKT check over the screened coordinates stays
// available from the same wire payload. act is the sorted working set;
// pos is its full-length inverse map (pos[row] = index in act, -1 for
// screened rows). A nil cols accumulates every column.
//
// rowScratch and valScratch hold the active-filtered column and must
// each have capacity >= the densest column's nnz (a.Rows always
// suffices); they let the hot loop run allocation-free. Nil scratch
// slices are allocated internally.
//
// Per sampled column with nz stored entries, na of them active, the
// kernel costs na(na+1) + 2nz flops — against nz(nz+1) + 2nz for the
// full-row SampledGramPacked — so stage-B Gram work shrinks
// quadratically with the support, matching the |A|(|A|+1)/2 + d wire
// slot it fills.
//
// The filtered column goes through the same kernel as SampledGramPacked
// (AddOuterPacked), so every active element receives the same products
// in the same order and the reduced Gram equals the act-indexed
// principal submatrix of the full Gram bit for bit.
func SampledGramPackedRows(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, act, pos []int, rowScratch []int, valScratch []float64, scale float64, c *perf.Cost) {
	if h.N != len(act) || len(r) != a.Rows || len(y) != a.Cols || len(pos) != a.Rows {
		panic("sparse: SampledGramPackedRows dimension mismatch")
	}
	if rowScratch == nil {
		rowScratch = make([]int, a.Rows)
	}
	if valScratch == nil {
		valScratch = make([]float64, a.Rows)
	}
	gramSweep(a, h, r, y, cols, scale, func(j int) ([]int, []float64) {
		// Column row indices are strictly increasing and act is sorted,
		// so the filtered positions are strictly increasing too.
		rows, vals := a.Col(j)
		na := 0
		for p, row := range rows {
			if ap := pos[row]; ap >= 0 {
				rowScratch[na], valScratch[na] = ap, vals[p]
				na++
			}
		}
		return rowScratch[:na], valScratch[:na]
	}, c)
}
