package mat

import "github.com/hpcgo/rcsfista/internal/perf"

// PanelUpdate accumulates the rank-w update A += S T^T on the stored
// upper triangle, where s and t hold row-major N x w panels (row i at
// [i*w, (i+1)*w)):
//
//	A(i, j) += sum_k s[i*w+k] * t[j*w+k]    for j >= i.
//
// Every element's running sum is seeded from its stored value and takes
// its w products one at a time in ascending k, so the result is bit for
// bit what w successive rank-1 updates A(i, j) += s_k[i]*t_k[j] leave —
// the order the column sweep of sparse.SampledGramPacked applies them
// in. What changes is the traffic: the sweep reads and writes the whole
// triangle once per column, this holds a 2x3 tile of it in registers
// for all w columns. It charges the w*N(N+1) flops of the multiply-adds.
//
// The tiles are 2x3 because that is what fits: gc schedules a tile's
// products ahead of its adds, so six accumulators, six products and
// five operands must share the 15 usable XMM registers — 2x4 and 3x3
// spill and run a quarter slower than 2x3, 2x2 leaves a tenth unused.
func (a *SymPacked) PanelUpdate(s, t []float64, w int, c *perf.Cost) {
	n := a.N
	if w < 0 || len(s) != n*w || len(t) != n*w {
		panic("mat: SymPacked PanelUpdate dimension mismatch")
	}
	i := 0
	for ; i+1 < n; i += 2 {
		s0, s1 := s[i*w:(i+1)*w], s[(i+1)*w:(i+2)*w]
		// h0 and h1 are the stored tails of rows i and i+1; column j sits
		// at h0[j-i] and h1[j-i-1].
		h0 := a.Data[a.rowStart(i) : a.rowStart(i)+n-i]
		h1 := a.Data[a.rowStart(i+1) : a.rowStart(i+1)+n-i-1]
		// Diagonal block: (i,i) alone, then column i+1 of both rows.
		h0[0] = panel1x1(s0, t[i*w:(i+1)*w], h0[0])
		h0[1], h1[0] = panel2x1(s0, s1, t[(i+1)*w:(i+2)*w], h0[1], h1[0])
		j := i + 2
		for ; j+2 < n; j += 3 {
			g0, g1 := h0[j-i:j-i+3], h1[j-i-1:j-i+2]
			g0[0], g0[1], g0[2], g1[0], g1[1], g1[2] = panel2x3(s0, s1,
				t[j*w:(j+1)*w], t[(j+1)*w:(j+2)*w], t[(j+2)*w:(j+3)*w],
				g0[0], g0[1], g0[2], g1[0], g1[1], g1[2])
		}
		for ; j < n; j++ {
			h0[j-i], h1[j-i-1] = panel2x1(s0, s1, t[j*w:(j+1)*w], h0[j-i], h1[j-i-1])
		}
	}
	if i < n {
		last := &a.Data[len(a.Data)-1]
		*last = panel1x1(s[i*w:], t[i*w:], *last)
	}
	c.AddFlops(int64(w) * int64(n) * int64(n+1))
}

// panel2x3 is the register tile of PanelUpdate: two rows of S against
// three rows of T, six running sums carried in and out by value. It is
// a function of its own, not a loop body in PanelUpdate, because
// inlined there the loop counter and two of the sums live on the stack
// and the kernel loses 40 % of its speed. Re-slicing every row to
// len(s0) is what removes the bounds checks from the loop.
func panel2x3(s0, s1, t0, t1, t2 []float64, a00, a01, a02, a10, a11, a12 float64) (float64, float64, float64, float64, float64, float64) {
	s1, t0, t1, t2 = s1[:len(s0)], t0[:len(s0)], t1[:len(s0)], t2[:len(s0)]
	for k, x0 := range s0 {
		x1, y0, y1, y2 := s1[k], t0[k], t1[k], t2[k]
		a00 += x0 * y0
		a01 += x0 * y1
		a02 += x0 * y2
		a10 += x1 * y0
		a11 += x1 * y1
		a12 += x1 * y2
	}
	return a00, a01, a02, a10, a11, a12
}

// panel2x1 is the tile of the diagonal block's second column and of the
// one or two columns a row pair has left after its 2x3 tiles.
func panel2x1(s0, s1, t0 []float64, a0, a1 float64) (float64, float64) {
	s1, t0 = s1[:len(s0)], t0[:len(s0)]
	for k, x0 := range s0 {
		y := t0[k]
		a0 += x0 * y
		a1 += s1[k] * y
	}
	return a0, a1
}

// panel1x1 is the single running sum of a diagonal element.
func panel1x1(s0, t0 []float64, acc float64) float64 {
	t0 = t0[:len(s0)]
	for k, x := range s0 {
		acc += x * t0[k]
	}
	return acc
}
