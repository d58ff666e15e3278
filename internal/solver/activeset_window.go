package solver

// The screening round protocol. Rounds run in windows: between exact
// KKT scans the working set is frozen and a round pays zero screening
// collectives; a scan certifies the whole window with one exact
// gradient, rewinding and redoing it on an expanded set when a screened
// coordinate violates its KKT condition. Batches the fault machinery
// substitutes (a stale batch after a lost round) are run in the layout
// they were filled under and force a scan. The shared state and rewind
// machinery live in activeset.go; DESIGN.md §10 and §14 have the design
// notes.

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/sparse"
)

// The scan gap, in rounds: it starts at kktBaseGap, doubles after every
// clean cadence scan (no violations, not forced) up to kktMaxGap, and
// falls back to kktBaseGap the moment a scan finds a violation or was
// forced. Steady-state windows stretch while the certificate is
// holding; the backstop tightens itself as soon as the iterate starts
// moving again.
const (
	kktBaseGap = 4
	kktMaxGap  = 8 * kktBaseGap
)

// sameLayout reports whether a and b are the same layout slice. Layout
// slices are never mutated after creation, so length plus first-element
// pointer identify one without comparing contents.
func sameLayout(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// batchLayout returns the layout a just-exchanged batch must be read
// in: filled, the layout it was filled under, when the exchange
// delivered it; the last delivered batch's layout when the exchange
// degraded to that stale batch instead.
func (e *engine) batchLayout(filled []int) []int {
	as := e.as
	if degraded := e.rec.Faults.DegradedRounds; degraded != as.degSeen {
		as.degSeen = degraded
		return as.actGood
	}
	as.actGood = filled
	return filled
}

// snapSupport fingerprints supp(wCurr) at a certified scan; a later
// supportChanged compares against it to trigger an early scan. It walks
// the working set the window was opened on: a coordinate a stale or
// expanded layout made non-zero outside it is missed here, re-admitted
// by the deriveActive that follows, and costs one extra scan on the
// next round.
func (as *activeState) snapSupport(w []float64) {
	for i := range as.suppBits {
		as.suppBits[i] = 0
	}
	for _, i := range as.act {
		if w[i] != 0 {
			as.suppBits[i>>6] |= 1 << uint(i&63)
		}
	}
}

// supportChanged reports whether supp(wCurr) moved since the last
// snapSupport. Pure bookkeeping over replicated state: every rank
// reaches the identical verdict without communicating.
func (as *activeState) supportChanged(w []float64) bool {
	for _, i := range as.act {
		if (w[i] != 0) != (as.suppBits[i>>6]&(1<<uint(i&63)) != 0) {
			return true
		}
	}
	return false
}

// activeView returns the row-filtered view of the local matrix for the
// current working set, rebuilding it if the set moved since the last
// fill. Called once per batch before any concurrent slot fills start, so
// the workers share an immutable snapshot.
func (e *engine) activeView() *sparse.ActiveView {
	as := e.as
	if as.viewGen != as.gen {
		as.view.Build(e.local.X, as.pos)
		as.viewGen = as.gen
	}
	return &as.view
}

// processActive is stage D under screening: open or extend the scan
// window with the round's k*S reduced updates, and certify the window
// when a scan is due. A non-scan round pays zero screening collectives,
// so the active path's per-round collective count is the dense engine's
// (the batch itself, which carries the cancellation vote). A scan fires on
// the adaptive cadence, on any iterate-support change, on a stale
// batch, and on stop. All branch decisions derive from allreduced
// quantities, shared fault verdicts and deterministic counters, so
// every rank issues the identical collective sequence.
func (e *engine) processActive(shared []float64) bool {
	as := e.as
	fr := as.popFill()
	layout := e.batchLayout(fr.act)
	if len(as.winBases) == 0 {
		as.winMark = e.markActive()
	}
	as.winBases = append(as.winBases, fr.base)
	// A delivered batch is laid out on the frozen working set, and makes
	// that the layout any later stale batch carries. So a layout other
	// than the working set can only arrive as the first round of a
	// window — a stale batch that predates the last deriveActive — and
	// because its round may move coordinates the working set does not
	// hold, it is scanned at once: every window runs in one layout.
	stale := !sameLayout(layout, as.act)
	stop := e.runActiveRound(shared, layout)
	as.sinceScan++
	trig := stale || as.supportChanged(e.wCurr)
	if !stop && as.sinceScan < as.scanGap && !trig {
		return false
	}
	return e.certifyWindow(layout, stop, trig)
}

// certifyWindow runs the exact KKT scan over the rounds accumulated
// since the last certification, checking every coordinate outside the
// layout those rounds ran in. On violations the window is rewound to
// its entry mark and every round is redone — same sample slots, one
// refill exchange each — on the expanded set, then rescanned; the set
// only grows across redos, so the loop terminates. trig says the scan
// was forced (support change or stale batch) rather than due on the
// cadence.
func (e *engine) certifyWindow(layout []int, stop, trig bool) bool {
	as := e.as
	clean := !trig
	for {
		viol := e.kktViolations(layout, e.exact(&e.kktEF, false))
		if len(viol) == 0 {
			break
		}
		clean = false
		expanded := unionSorted(layout, viol)
		e.rewindActive(as.winMark)
		e.rec.RecordRecovery("expand", e.rec.Rounds,
			fmt.Sprintf("KKT violation on %d screened coords: |A| %d -> %d, %d-round window redone",
				len(viol), len(layout), len(expanded), len(as.winBases)))
		stop = false
		for _, b := range as.winBases {
			redo := e.refillBatch(b, expanded)
			e.rec.Rounds++
			// A redo exchange is a round like any other: lost, it hands
			// back the stale batch, which is run in its own layout — the
			// window's or an earlier expansion's, a subset of expanded
			// either way, so the rescan still looks outside everything
			// the redo touched. (It cannot be skipped: a window holds a
			// processed round, so a last good batch exists.) It carries no
			// cancellation vote: the ranks already agreed to run the round
			// it redoes.
			sharedRedo := e.exch.Redo(redo)
			used := e.batchLayout(expanded)
			if stop = e.runActiveRound(sharedRedo, used); stop {
				break
			}
		}
		layout = expanded
	}
	if clean {
		if as.scanGap < kktMaxGap {
			as.scanGap *= 2
		}
	} else {
		as.scanGap = kktBaseGap
	}
	as.sinceScan = 0
	as.winBases = as.winBases[:0]
	as.snapSupport(e.wCurr)
	if !stop {
		e.deriveActive(e.exact(&e.kktEF, false))
	}
	return stop
}
