package sparse

import (
	"sync"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// PanelCols is the most columns one panel gathers. One stage-B slot
// (mbar/P columns, ~200 on the repo benchmark) fits one panel; narrower
// panels pay the per-tile call and a remainder panel more often
// (64 columns: 6.2 against 7.9 GFLOP/s at d = 192).
const PanelCols = 256

// panel is the gather scratch of one panel update: t is the row-major
// Rows x w transpose of the gathered columns, s its weighted copy.
type panel struct{ s, t []float64 }

// panels recycles gather scratch (2*Rows*w floats, at most
// 2*Rows*PanelCols) across calls and across the engine's concurrent
// slot fills.
var panels = sync.Pool{New: func() any { return new(panel) }}

// gramPackedFull is SampledGramPacked for a block that stores every
// entry. R takes the sweep's loop as is; H goes through the panel
// kernel, which leaves each element the bits the sweep would (see
// PanelGramPacked), and is billed what the sweep bills.
func gramPackedFull(a *CSC, h *mat.SymPacked, r []float64, y []float64, cols []int, scale float64, c *perf.Cost) {
	if h.N != a.Rows || len(r) != a.Rows || len(y) != a.Cols {
		panic("sparse: SampledGramPacked dimension mismatch")
	}
	n := len(cols)
	if cols == nil {
		n = a.Cols
	}
	for ci := 0; ci < n; ci++ {
		j := ci
		if cols != nil {
			j = cols[ci]
		}
		sy := scale * y[j]
		_, vals := a.Col(j)
		for p, v := range vals {
			r[p] += sy * v
		}
	}
	panelGram(a, h, cols, n, nil, scale, c)
	c.AddFlops(int64(n) * int64(2*a.Rows))
}

// PanelGramPacked accumulates H += sum_i weights[i] * x_j x_j^T,
// j = cols[i], for a block that stores every entry (a.Full()), on the
// packed upper triangle. It gathers up to PanelCols columns at a time
// into a row-major panel T and its weighted copy S and hands them to
// mat.SymPacked.PanelUpdate, so element (p, q) receives
// (weights[i]*x_j[p]) * x_j[q] for i ascending on top of its stored
// value: the products, their association and their order are those of
// a column-at-a-time sweep, and so are the resulting bits. Charges
// len(cols) * Rows(Rows+1) flops.
func PanelGramPacked(a *CSC, h *mat.SymPacked, cols []int, weights []float64, c *perf.Cost) {
	if !a.Full() || h.N != a.Rows || len(weights) != len(cols) {
		panic("sparse: PanelGramPacked needs a full block and matching dimensions")
	}
	panelGram(a, h, cols, len(cols), weights, 0, c)
}

// panelGram drives the panels over n columns: column ci is cols[ci]
// (ci itself when cols is nil) with weight weights[ci] (scale when
// weights is nil).
func panelGram(a *CSC, h *mat.SymPacked, cols []int, n int, weights []float64, scale float64, c *perf.Cost) {
	d := a.Rows
	pn := panels.Get().(*panel)
	defer panels.Put(pn)
	for lo := 0; lo < n; lo += PanelCols {
		w := min(PanelCols, n-lo)
		if cap(pn.t) < d*w {
			pn.s, pn.t = make([]float64, d*w), make([]float64, d*w)
		}
		s, t := pn.s[:d*w], pn.t[:d*w]
		for k := 0; k < w; k++ {
			j, wt := lo+k, scale
			if cols != nil {
				j = cols[j]
			}
			if weights != nil {
				wt = weights[lo+k]
			}
			_, vals := a.Col(j)
			for p, v := range vals {
				t[p*w+k] = v
				s[p*w+k] = wt * v
			}
		}
		h.PanelUpdate(s, t, w, c)
	}
}
