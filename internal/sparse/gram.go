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
// grampanel.go, any other the column sweep of AddOuterPacked; the two
// leave the same bits and bill the same flops. The selection sits out
// here, in a function of its own: tested inside the sweep's function it
// changed that function's register allocation and slowed the sparse
// workloads.
func SampledGramPacked(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if a.Full() {
		gramPackedFull(a, h, r, y, cols, scale, c)
		return
	}
	if h.N != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPacked dimension mismatch")
	}
	gramSweep(a, h, r, y, cols, scale, a.Col, c)
}

// gramSweep is the column-at-a-time sampled Gram fill every sparse
// block takes: for each sampled column j (every column when cols is
// nil) the entries hcol(j) — all of column j, or its active rows
// renumbered to working-set positions — go into H through
// AddOuterPacked, while R takes the whole column. It bills
// na(na+1) + 2nz flops per column, na = len of hcol(j), nz = nnz of
// column j.
func gramSweep(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, hcol func(j int) ([]int, []float64), c *perf.Cost) {
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
		hr, hv := hcol(j)
		AddOuterPacked(h, hr, hv, scale)
		rows, vals := a.Col(j)
		sy := scale * y[j]
		for p, v := range vals {
			r[rows[p]] += sy * v
		}
		flops += int64(len(hr)*(len(hr)+1) + 2*len(rows))
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

// AddOuterPacked adds w * x x^T to the packed upper triangle h, where
// x is the sparse vector with the strictly increasing indices rows and
// the values vals: element (rows[p], rows[q]), q >= p, receives the one
// rounded product (w*vals[p])*vals[q]. It is the kernel of every sparse
// Gram fill — SampledGramPacked, SampledGramPackedRows/View and the
// curvature-weighted erm Hessian — and charges nothing: the callers
// bill their columns.
//
// Rows go four at a time. Each is addressed through its column-indexed
// window (mat.SymPacked.RowWindow), so one entry (rows[q], vals[q])
// past the block feeds four accumulations at one index, behind one
// bounds check. Every element gets exactly one product per call, so
// the blocking cannot change a bit: a sequence of calls adds
// each element's products in call order, whatever the row grouping.
func AddOuterPacked(h *mat.SymPacked, rows []int, vals []float64, w float64) {
	// The blocks advance by reslicing, not by an index: with an outer
	// index live across it, gc spilled the inner loop's counter and
	// reloaded two slice bases on every entry.
	for len(rows) >= 4 {
		vals = vals[:len(rows)]
		b0, b1, b2, b3 := rows[0], rows[1], rows[2], rows[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		s0, s1, s2, s3 := w*v0, w*v1, w*v2, w*v3
		h0 := h.RowWindow(b0)
		h1, h2, h3 := h.RowWindow(b1)[:len(h0)], h.RowWindow(b2)[:len(h0)], h.RowWindow(b3)[:len(h0)]
		h0[b0] += s0 * v0
		h0[b1] += s0 * v1
		h0[b2] += s0 * v2
		h0[b3] += s0 * v3
		h1[b1] += s1 * v1
		h1[b2] += s1 * v2
		h1[b3] += s1 * v3
		h2[b2] += s2 * v2
		h2[b3] += s2 * v3
		h3[b3] += s3 * v3
		for q := 4; q < len(rows); q++ {
			rq, vq := rows[q], vals[q]
			h0[rq] += s0 * vq
			h1[rq] += s1 * vq
			h2[rq] += s2 * vq
			h3[rq] += s3 * vq
		}
		rows, vals = rows[4:], vals[4:]
	}
	for p, rp := range rows {
		hp, s := h.RowWindow(rp), w*vals[p]
		for q := p; q < len(rows); q++ {
			hp[rows[q]] += s * vals[q]
		}
	}
}
