package solver

// Active-set reduced subproblems with dynamic screening (Options.
// ActiveSet). The l1 KKT conditions say a coordinate can sit at zero in
// the optimum only while |grad f(w)_i| <= Lambda, so the ranks hold a
// working set
//
//	A = supp(wCurr) u supp(wPrev) [u supp(wSnap)]
//	    u {i : |grad f(w)_i| > Lambda*(1-ScreenMargin)}
//
// and run whole rounds — stage-B Gram fill, stage-C allreduce,
// stage-D updates — on the |A| x |A| principal submatrix: the batch
// slot shrinks from d(d+1)/2 + d words to |A|(|A|+1)/2 + d (R stays
// full-length so the exact KKT check reads off the same payload), and
// the Gram/MulVec flops shrink quadratically with |A|.
//
// Screening is safe, not merely heuristic, because of the windowed
// re-expansion protocol (activeset_window.go): an exact KKT scan closes
// every window of rounds — every rank computes the exact full gradient
// (one d-word allreduce, charged) and checks the screened coordinates
// against the exact KKT rule |grad f(w)_i| <= Lambda. Any violation
// aborts the window — iterate, momentum and trace state rewind to the
// window entry — the working set grows by the violators, the same
// sample slots are refilled under the expanded layout, re-exchanged
// (extra charged rounds), and the window is redone. A strictly grows
// across redos, so the protocol terminates and the method converges to
// the same optimum as the dense path.
//
// The working set itself costs no collective: it is a pure function of
// allreduced quantities (the exact gradient and the replicated
// iterates), so every rank derives the identical set locally — the same
// rationale that lets the shared sample streams skip coordination.

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// fillRec labels one filled-but-not-yet-processed batch with the state
// its wire layout depends on: the Hessian base index its sample slots
// were drawn at, and the working set it was filled under. A FIFO of
// these records keeps the blocking loop (depth 1) and the pipelined
// loop (depth 2: the in-flight batch plus the speculative one) honest
// about which layout each resolved batch must be interpreted in.
type fillRec struct {
	base int
	act  []int
}

// activeState is the screening engine's per-run state.
type activeState struct {
	margin float64
	// act is the current sorted working set; pos its full-length inverse
	// (pos[i] = index in act, -1 when screened). act slices are never
	// mutated after creation, so fillRec and actGood may alias them.
	act []int
	pos []int
	// gen counts working-set changes; the pipelined Loop compares it
	// around a speculative fill to decide whether a Refill is needed.
	gen int

	bits []uint64
	// layoutBits is scratch for the KKT check's layout-membership test
	// inLayout, made once so a scan allocates nothing.
	layoutBits []uint64
	inLayout   func(int) bool

	// regOp caches the regularizer restricted to regLayout: separable
	// regularizers restrict to themselves, group regularizers are
	// remapped onto reduced indices (prox.Screener.Restrict).
	regOp     prox.Operator
	regLayout []int

	fills []fillRec
	// actGood is the layout of the last successfully exchanged batch —
	// the layout a degraded (stale) batch must be interpreted in.
	actGood []int
	degSeen int

	// Reduced-space scratch, capacity d, sliced to |A| per round.
	wCurrA, wPrevA, vA, gradA, tmpA, snapA, fgA, rA []float64
	// Per-slot fill scratch for SampledGramPackedRows (slots fill
	// concurrently).
	rowScratch [][]int
	valScratch [][]float64

	redoBuf []float64
	posRedo []int

	// view is the row-filtered local matrix for the current working set,
	// rebuilt lazily when gen moves (viewGen trails gen; -1 = unbuilt).
	// Fills under the canonical layout go through it; redo fills under a
	// transient expanded layout fall back to the per-column filter.
	view    sparse.ActiveView
	viewGen int

	// Window-entry snapshots for the re-expansion rewind; one mark is
	// live per scan window.
	mW, mWPrev, mSnap, mFG []float64

	// Scan-window state: rounds since the last exact KKT scan, the
	// window mark and the bases of the rounds run since the last
	// certified scan (the rewind/redo unit), the iterate-support
	// fingerprint at the last scan — a support change forces an early
	// scan so the working set never goes stale against the keep rule —
	// and the adaptive scan interval (kktBaseGap..kktMaxGap).
	sinceScan int
	winMark   activeMark
	winBases  []int
	suppBits  []uint64
	scanGap   int
}

// activeMark is the scalar half of a window-entry snapshot; the vector
// half lives in the activeState m* buffers (one mark is live at a time).
type activeMark struct {
	rec                  solvercore.RecorderMark
	t                    float64
	sinceSnap, sinceEval int
	gradMapStop          bool
}

func (as *activeState) pushFill(base int) {
	as.fills = append(as.fills, fillRec{base: base, act: as.act})
}

func (as *activeState) popFill() fillRec {
	fr := as.fills[0]
	n := copy(as.fills, as.fills[1:])
	as.fills = as.fills[:n]
	return fr
}

// initActiveSet builds the screening state and derives the initial
// working set from the exact state at w0: the variance-reduction
// snapshot's when it ran, one d-word allreduce otherwise.
func (e *engine) initActiveSet() {
	d, k := e.d, e.opts.K
	as := &activeState{
		margin:     e.opts.ScreenMargin,
		pos:        make([]int, d),
		bits:       make([]uint64, (d+63)/64),
		layoutBits: make([]uint64, (d+63)/64),
		suppBits:   make([]uint64, (d+63)/64),
		wCurrA:     make([]float64, d), wPrevA: make([]float64, d),
		vA: make([]float64, d), gradA: make([]float64, d),
		tmpA: make([]float64, d), rA: make([]float64, d),
		rowScratch: make([][]int, k),
		valScratch: make([][]float64, k),
		posRedo:    make([]int, d),
		mW:         make([]float64, d), mWPrev: make([]float64, d),
		viewGen: -1,
		scanGap: kktBaseGap,
	}
	as.inLayout = func(i int) bool { return as.layoutBits[i>>6]&(1<<uint(i&63)) != 0 }
	for i := range as.pos {
		as.pos[i] = -1
	}
	for j := 0; j < k; j++ {
		as.rowScratch[j] = make([]int, d)
		as.valScratch[j] = make([]float64, d)
	}
	if e.opts.VarianceReduced {
		as.snapA = make([]float64, d)
		as.fgA = make([]float64, d)
		as.mSnap = make([]float64, d)
		as.mFG = make([]float64, d)
	}
	e.as = as
	e.deriveActive(e.exact(&e.kktEF, false))
	as.snapSupport(e.wCurr)
	as.actGood = as.act
	e.rec.Active = len(as.act)
}

// fillSlotActive is fillSlotAt under a reduced layout: the slot holds
// the |A| x |A| packed principal Gram submatrix followed by the
// full-length R.
func (e *engine) fillSlotActive(j, base int, buf []float64, layout, pos []int, view *sparse.ActiveView, cost *perf.Cost) {
	cols := e.localSlotCols(j, base)
	h, r := e.slotView(buf, j, len(layout))
	if view != nil {
		sparse.SampledGramPackedView(e.local.X, view, h, r, e.local.Y, cols,
			1/float64(e.mbar), cost)
		return
	}
	sparse.SampledGramPackedRows(e.local.X, h, r, e.local.Y, cols,
		layout, pos, e.as.rowScratch[j], e.as.valScratch[j], 1/float64(e.mbar), cost)
}

// Generation reports the working-set generation for the pipelined
// Loop's speculative-fill invalidation check; the dense path never
// changes layout.
func (e *engine) Generation() int {
	if e.as == nil {
		return 0
	}
	return e.as.gen
}

// Refill rebuilds the most recently filled batch — same sample slots —
// under the current working set, after a round's KKT verdict moved the
// layout underneath a speculative fill.
func (e *engine) Refill(buf []float64) perf.Cost {
	as := e.as
	fr := &as.fills[len(as.fills)-1]
	fr.act = as.act
	var fill perf.Cost
	mat.Zero(buf)
	view := e.activeView()
	for j := 0; j < e.opts.K; j++ {
		e.fillSlotActive(j, fr.base, buf, as.act, as.pos, view, &fill)
	}
	e.c.Cost().Add(fill)
	return fill
}

// refillBatch refills the k sample slots at base under an expanded
// layout for the re-expansion redo exchange. Sampling is a pure
// function of the slot index, so the redo reproduces the exact sample
// sets of the aborted attempt.
func (e *engine) refillBatch(base int, layout []int) []float64 {
	as := e.as
	for i := range as.posRedo {
		as.posRedo[i] = -1
	}
	for p, i := range layout {
		as.posRedo[i] = p
	}
	slotLen := mat.PackedLen(len(layout)) + e.d
	n := e.opts.K * slotLen
	if cap(as.redoBuf) < n {
		as.redoBuf = make([]float64, n)
	}
	buf := as.redoBuf[:n]
	mat.Zero(buf)
	cost := e.c.Cost()
	for j := 0; j < e.opts.K; j++ {
		e.fillSlotActive(j, base, buf, layout, as.posRedo, nil, cost)
	}
	return buf
}

// markActive snapshots the rewindable window-entry state; rewindActive
// restores it before a window is redone. Rounds and Cost are not
// rewound — the aborted attempt's work and communication genuinely
// happened and stay charged.
func (e *engine) markActive() activeMark {
	as := e.as
	copy(as.mW, e.wCurr)
	copy(as.mWPrev, e.wPrev)
	if e.opts.VarianceReduced {
		copy(as.mSnap, e.wSnap)
		copy(as.mFG, e.fullGrad)
	}
	return activeMark{
		rec: e.rec.Mark(), t: e.t,
		sinceSnap: e.sinceSnap, sinceEval: e.sinceEval,
		gradMapStop: e.gradMapStop,
	}
}

func (e *engine) rewindActive(m activeMark) {
	as := e.as
	copy(e.wCurr, as.mW)
	copy(e.wPrev, as.mWPrev)
	if e.opts.VarianceReduced {
		copy(e.wSnap, as.mSnap)
		copy(e.fullGrad, as.mFG)
	}
	e.t = m.t
	e.sinceSnap = m.sinceSnap
	e.sinceEval = m.sinceEval
	e.gradMapStop = m.gradMapStop
	e.rec.Rewind(m.rec)
	e.wVer++
}

// runActiveRound runs one attempt's k*S reduced updates, each followed
// by the same afterUpdate bookkeeping as the dense Process.
func (e *engine) runActiveRound(shared []float64, layout []int) bool {
	a := len(layout)
	e.rec.Active = a
	for j := 0; j < e.opts.K; j++ {
		ha, r := e.slotView(shared, j, a)
		for s := 0; s < e.opts.S; s++ {
			e.updateActive(ha, r, layout)
			if e.afterUpdate() {
				return true
			}
		}
	}
	return false
}

// reducedReg returns the regularizer acting on the gathered
// layout-indexed subvector, cached per layout (sameLayout).
// Separable regularizers restrict to themselves — the cache is then a
// pure identity — while GroupL2 is remapped onto reduced indices, which
// is well-defined because working sets are group-closed.
func (e *engine) reducedReg(layout []int) prox.Operator {
	if len(layout) == 0 {
		return e.reg
	}
	as := e.as
	if as.regOp == nil || !sameLayout(as.regLayout, layout) {
		as.regOp, as.regLayout = e.scr.Restrict(layout), layout
	}
	return as.regOp
}

// updateActive is one solution update in the reduced coordinate space:
// gather the A-indexed iterate state, run the FISTA recurrence against
// the reduced Hessian, scatter back. Screened coordinates stay frozen
// at zero (supp(wCurr) u supp(wPrev) u supp(wSnap) is a subset of the
// layout by construction, so the gathered recurrence equals the dense
// one restricted to A whenever the dense step would keep the screened
// coordinates at zero — exactly what the KKT check certifies).
func (e *engine) updateActive(h Hessian, r []float64, layout []int) {
	as, cost := e.as, e.c.Cost()
	reg := e.reducedReg(layout)
	a := len(layout)
	wc, wp := as.wCurrA[:a], as.wPrevA[:a]
	v, g, tmp := as.vA[:a], as.gradA[:a], as.tmpA[:a]
	mat.Gather(wc, e.wCurr, layout)
	mat.Gather(wp, e.wPrev, layout)
	tNext := (1 + math.Sqrt(1+4*e.t*e.t)) / 2
	mu := (e.t - 1) / tNext
	e.t = tNext
	cost.AddFlops(6)

	mat.Sub(v, wc, wp, cost)
	mat.AddScaled(v, wc, mu, v, cost)

	if e.opts.VarianceReduced {
		snap := as.snapA[:a]
		mat.Gather(snap, e.wSnap, layout)
		mat.Sub(tmp, v, snap, cost)
		h.MulVec(g, tmp, cost)
		fg := as.fgA[:a]
		mat.Gather(fg, e.fullGrad, layout)
		mat.Axpy(1, fg, g, cost)
	} else {
		h.MulVec(g, v, cost)
		ra := as.rA[:a]
		mat.Gather(ra, r, layout)
		mat.Axpy(-1, ra, g, cost)
	}

	mat.Scatter(e.wPrev, wc, layout)
	mat.AddScaled(wc, v, -e.gamma, g, cost)
	reg.Apply(wc, wc, e.gamma, cost)
	mat.Scatter(e.wCurr, wc, layout)
	e.rec.Iter++
	e.wVer++
}
