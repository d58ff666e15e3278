package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// The three column sweeps below are reference forms of the sparse Gram
// fills that share no code with AddOuterPacked: each is register-blocked
// two rows at a time and addresses a row through its RowTail. The tests
// and fuzz targets hold SampledGramPacked, SampledGramPackedRows and
// SampledGramPackedView to them bit for bit and flop for flop.

// gramPackedSweep is the oracle of SampledGramPacked's sparse branch,
// for any sparsity pattern.
func gramPackedSweep(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if h.N != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPacked dimension mismatch")
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
		// Upper triangle of scale * x_j x_j^T: row indices are strictly
		// increasing, so for q >= p element (rows[p], rows[q]) lies in
		// the contiguous tail of packed row rows[p]. The sweep is
		// register-blocked two rows at a time — one (rows[q], vals[q])
		// load feeds both rows' accumulations. Each packed element
		// receives exactly one contribution sv_p*vals[q] per column, so
		// the blocked order is bit-identical to the row-at-a-time form.
		p := 0
		for ; p+1 < nz; p += 2 {
			b0, b1 := rows[p], rows[p+1]
			t0, t1 := h.RowTail(b0), h.RowTail(b1)
			sv0, sv1 := scale*vals[p], scale*vals[p+1]
			t0[0] += sv0 * vals[p]
			t0[b1-b0] += sv0 * vals[p+1]
			t1[0] += sv1 * vals[p+1]
			for q := p + 2; q < nz; q++ {
				rq, vq := rows[q], vals[q]
				t0[rq-b0] += sv0 * vq
				t1[rq-b1] += sv1 * vq
			}
		}
		if p < nz {
			h.RowTail(rows[p])[0] += scale * vals[p] * vals[p]
		}
		sy := scale * y[j]
		for p := 0; p < nz; p++ {
			r[rows[p]] += sy * vals[p]
		}
		flops += int64(nz*(nz+1) + 2*nz)
	}
	c.AddFlops(flops)
}

// gramRowsSweep is the oracle of SampledGramPackedRows.
func gramRowsSweep(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, act, pos []int, rowScratch []int, valScratch []float64, scale float64, c *perf.Cost) {
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

// gramViewSweep is the oracle of SampledGramPackedView.
func gramViewSweep(a *CSC, view *ActiveView, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPackedView dimension mismatch")
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
		ar, av := view.Col(j)
		na := len(ar)
		// Upper triangle of the reduced scale * x_j x_j^T, register-
		// blocked two rows at a time — the same sweep as the Rows kernel.
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
		rows, vals := a.Col(j)
		sy := scale * y[j]
		for p := 0; p < len(rows); p++ {
			r[rows[p]] += sy * vals[p]
		}
		flops += int64(na*(na+1) + 2*len(rows))
	}
	c.AddFlops(flops)
}

// residualPasses is the three-pass form of the least-squares data pass
// over a block blk with labels y, the form ResidualGrad fuses: MulVecT
// into resid, Axpy of −y, MulVec into g, then the squared residuals
// summed in column order. resid has length blk.Cols.
func residualPasses(blk *CSC, g, w, y, resid []float64, c *perf.Cost) float64 {
	blk.MulVecT(resid, w, c)
	mat.Axpy(-1, y, resid, c)
	blk.MulVec(g, resid, c)
	var loss float64
	for _, v := range resid {
		loss += v * v
	}
	return loss
}

// lossPasses is the two-pass form of ResidualLoss over a block with
// labels y: MulVecT into pred, then a subtract, a square and an add per
// column, charged 3 flops each. pred has length blk.Cols.
func lossPasses(blk *CSC, w, y, pred []float64, c *perf.Cost) float64 {
	blk.MulVecT(pred, w, c)
	var loss float64
	for i, t := range pred {
		r := t - y[i]
		loss += r * r
	}
	c.AddFlops(int64(3 * len(pred)))
	return loss
}
