package solver

// Per-slot stage plumbing for the engine: the stage-A/B sampled Gram
// fill of a single batch slot. The round loop and engine state live in
// rcsfista.go.

import (
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// localSlotCols draws the global sample set of batch slot j (Hessian
// index base+j, identical on every rank: a pure function of (seed,
// base+j)) and returns its local column indices. Both land in slot j's
// own buffers, kept across rounds; concurrent fills of distinct slots
// do not share them.
func (e *engine) localSlotCols(j, base int) []int {
	e.slotDraw[j] = e.sampler.AppendSample(e.slotDraw[j][:0], base+j)
	e.slotCols[j] = e.local.AppendLocalCols(e.slotCols[j][:0], e.slotDraw[j])
	return e.slotCols[j]
}

// fillSlotAt computes the local partial (H, R) Gram instance of batch
// slot j (global Hessian index base+j) into buf, charging flops to
// cost. Stage A (sampling) is a pure function of (seed, base+j) and
// stage B writes only slot j's region of buf, so distinct slots are
// safe to fill concurrently. Under ActiveSet the slot holds the reduced
// |A| x |A| packed Gram plus the full-length R.
func (e *engine) fillSlotAt(j, base int, buf []float64, cost *perf.Cost) {
	if e.as != nil {
		e.fillSlotActive(j, base, buf, e.as.act, e.as.pos, &e.as.view, cost)
		return
	}
	cols := e.localSlotCols(j, base)
	h, r := e.slotView(buf, j, e.d)
	sparse.SampledGramPacked(e.local.X, h, r, e.local.Y, cols, 1/float64(e.mbar), cost)
}

// sampleSize is m̄ = ⌊b·m⌋ clamped to [1, m], the per-instance sample
// count of a rate-b solve on m samples.
func sampleSize(b float64, m int) int {
	return min(max(int(b*float64(m)), 1), m)
}
