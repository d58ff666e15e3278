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
// The active-row accumulation order matches SampledGramPacked's
// restriction to act element for element, so the reduced Gram equals
// the act-indexed principal submatrix of the full Gram bit for bit.
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
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	var flops int64
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		rows, vals := a.Col(j)
		nz := len(rows)
		// Filter the column to its active rows. Column row indices are
		// strictly increasing and act is sorted, so the filtered
		// positions are strictly increasing too.
		na := 0
		for p := 0; p < nz; p++ {
			if ap := pos[rows[p]]; ap >= 0 {
				rowScratch[na] = ap
				valScratch[na] = vals[p]
				na++
			}
		}
		ar, av := rowScratch[:na], valScratch[:na]
		// Upper triangle of the reduced scale * x_j x_j^T, register-
		// blocked two rows at a time like SampledGramPacked: each packed
		// element gets exactly one contribution per column, so the
		// blocked order is bit-identical to the row-at-a-time sweep.
		p := 0
		for ; p+1 < na; p += 2 {
			b0, b1 := ar[p], ar[p+1]
			t0, t1 := h.RowTail(b0), h.RowTail(b1)
			sv0, sv1 := scale*av[p], scale*av[p+1]
			t0[0] += sv0 * av[p]
			t0[b1-b0] += sv0 * av[p+1]
			t1[0] += sv1 * av[p+1]
			for q := p + 2; q < na; q++ {
				rq, vq := ar[q], av[q]
				t0[rq-b0] += sv0 * vq
				t1[rq-b1] += sv1 * vq
			}
		}
		if p < na {
			h.RowTail(ar[p])[0] += scale * av[p] * av[p]
		}
		// R += scale * y_j * x_j over the FULL sparsity pattern.
		sy := scale * y[j]
		for p := 0; p < nz; p++ {
			r[rows[p]] += sy * vals[p]
		}
		flops += int64(na*(na+1) + 2*nz)
	}
	c.AddFlops(flops)
}
