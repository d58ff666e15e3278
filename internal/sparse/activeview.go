package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// ActiveView is a reusable row-filtered snapshot of a CSC matrix: for
// every column it stores only the entries whose rows sit in the current
// working set, with row indices already mapped to working-set positions.
// The screening engine rebuilds it once per working-set change and fills
// every sampled column through it until the set moves again, so the
// per-column O(nz) position-map filter of SampledGramPackedRows is paid
// once per layout instead of once per sampled column — with the backoff
// scan cadence a layout survives tens of rounds, which turns the filter
// from a per-column tax into noise.
//
// Build is pure data movement (no flops are charged, exactly like the
// inline filter it replaces), and reading a column back yields the same
// (position, value) sequence the inline filter would produce, so fills
// through a view are bit-identical to fills through the filter.
type ActiveView struct {
	colptr []int
	rows   []int
	vals   []float64
}

// Build refilters the view against matrix a and the working-set inverse
// map pos (pos[row] = position in the working set, -1 when screened).
// Buffers are reused across rebuilds; the first Build allocates capacity
// for the full nonzero count and later ones are allocation-free.
func (v *ActiveView) Build(a *CSC, pos []int) {
	if len(pos) != a.Rows {
		panic("sparse: ActiveView Build dimension mismatch")
	}
	if cap(v.colptr) < a.Cols+1 {
		v.colptr = make([]int, a.Cols+1)
		nnz := a.ColPtr[a.Cols]
		v.rows = make([]int, 0, nnz)
		v.vals = make([]float64, 0, nnz)
	}
	v.colptr = v.colptr[:a.Cols+1]
	v.rows = v.rows[:0]
	v.vals = v.vals[:0]
	for j := 0; j < a.Cols; j++ {
		v.colptr[j] = len(v.rows)
		rows, vals := a.Col(j)
		for p, r := range rows {
			if ap := pos[r]; ap >= 0 {
				v.rows = append(v.rows, ap)
				v.vals = append(v.vals, vals[p])
			}
		}
	}
	v.colptr[a.Cols] = len(v.rows)
}

// Col returns column j's active entries: working-set positions (strictly
// increasing) and the matching values.
func (v *ActiveView) Col(j int) ([]int, []float64) {
	return v.rows[v.colptr[j]:v.colptr[j+1]], v.vals[v.colptr[j]:v.colptr[j+1]]
}

// SampledGramPackedView is SampledGramPackedRows with the active-row
// filter amortized through a prebuilt ActiveView: the same kernel on the
// same filtered columns, so identical accumulation order, identical
// flop charge na(na+1) + 2nz per column, identical bits — only the
// per-column position-map walk is gone.
func SampledGramPackedView(a *CSC, view *ActiveView, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPackedView dimension mismatch")
	}
	gramSweep(a, h, r, y, cols, scale, view.Col, c)
}
