package sparse

import (
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// SampledGramPacked accumulates the sampled Gram contributions of
// Eq. 18 for the sample (column) index set cols:
//
//	H += scale * sum_{j in cols} x_j x_j^T
//	R += scale * sum_{j in cols} y_j x_j
//
// where x_j is column j of a and y_j the matching label. H is the
// Rows x Rows packed upper triangle and R has length Rows. This is
// stage B of Figure 1: each processor calls it with its local column
// block and local sample set; the partial results are then combined
// with one allreduce (stage C).
//
// Only the upper triangle is accumulated, so each sampled column costs
// nz(nz+1) + 2nz flops instead of a full-storage kernel's 2nz^2 + 2nz
// — the ~2x Gram-flop saving of exploiting symmetry (the d^2*mbar*f-type
// term of Table 1, halved). Each element receives its contributions in
// column order, one rounded product (scale*x_p)*x_q per column, so the
// result equals bit for bit the upper triangle of a full-storage sweep
// that forms each product once and mirrors it.
// A nil cols accumulates every column (the FullGramPacked path).
//
// A block that stores every entry takes the dense-panel path of
// grampanel.go instead of the column sweep; the two leave the same bits
// and bill the same flops. The selection sits out here, in a function
// of its own: tested inside the sweep's function it changed that
// function's register allocation and slowed the sparse workloads.
func SampledGramPacked(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if a.Full() {
		gramPackedFull(a, h, r, y, cols, scale, c)
		return
	}
	gramPackedSweep(a, h, r, y, cols, scale, c)
}

// gramPackedSweep is the column-at-a-time form of SampledGramPacked,
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

// FullGramPacked computes H = scale * A A^T (upper triangle, packed)
// and R = scale * A y from scratch. H is cleared first.
// Allocation-free: the kernel iterates the columns directly instead of
// materializing an all-columns index slice.
func FullGramPacked(a *CSC, h *mat.SymPacked, r []float64, y []float64, scale float64, c *perf.Cost) {
	h.Zero()
	mat.Zero(r)
	SampledGramPacked(a, h, r, y, nil, scale, c)
}

// GramApply computes g = scale * A (A^T w) - shift without forming the
// Gram matrix, i.e. the exact least-squares gradient direction when
// scale = 1/m and shift = (1/m) A y. g, w have length Rows; shift may
// be nil, meaning zero. scratch must have length Cols (reused across
// calls to avoid allocation).
func GramApply(a *CSC, g, w, shift, scratch []float64, scale float64, c *perf.Cost) {
	if len(g) != a.Rows || len(w) != a.Rows || len(scratch) != a.Cols {
		panic("sparse: GramApply dimension mismatch")
	}
	a.MulVecT(scratch, w, c)
	mat.Zero(g)
	a.MulVec(g, scratch, c)
	if scale != 1 {
		mat.Scal(scale, g, c)
	}
	if shift != nil {
		mat.Axpy(-1, shift, g, c)
	}
}
