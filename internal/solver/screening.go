package solver

// Screening-rule side of the active-set engine (see activeset.go for
// the shared state, activeset_window.go for the round protocol): the
// working-set derivation and the KKT violation check a scan runs, both
// on the exact gradient g at wCurr (engine.exact).

// deriveActive computes the next window's working set from the current
// (shared) state. It issues no collective: the set is a pure function
// of allreduced quantities (g and the replicated iterates), so
// every rank builds the identical one — the same rationale that lets
// the shared sample streams skip coordination. The iterate supports are
// included so the reduced FISTA recurrences v = w + mu*(w - wPrev) and
// H(v - wSnap) reproduce the dense arithmetic restricted to A; the
// regularizer's gradient rule (prox.Screener.GradScreen — |g_i| >
// λ(1-margin) for l1, the shifted rule for elastic net, per-group norms
// for group lasso) admits every coordinate the KKT conditions cannot
// screen at margin, and CloseSupport keeps the set group-closed under
// group penalties.
func (e *engine) deriveActive(g []float64) {
	as := e.as
	d := e.d
	for w := range as.bits {
		as.bits[w] = 0
	}
	for i := 0; i < d; i++ {
		keep := e.wCurr[i] != 0 || e.wPrev[i] != 0
		if !keep && e.opts.VarianceReduced && e.wSnap[i] != 0 {
			keep = true
		}
		if keep {
			as.bits[i>>6] |= 1 << uint(i&63)
		}
	}
	e.scr.GradScreen(as.bits, g, e.wCurr, as.margin)
	e.scr.CloseSupport(as.bits)
	n := 0
	same := true
	for i := 0; i < d; i++ {
		if as.bits[i>>6]&(1<<uint(i&63)) == 0 {
			continue
		}
		if same && (n >= len(as.act) || as.act[n] != i) {
			same = false
		}
		n++
	}
	if same && n == len(as.act) {
		return
	}
	act := make([]int, 0, n)
	for i := 0; i < d; i++ {
		if as.bits[i>>6]&(1<<uint(i&63)) != 0 {
			act = append(act, i)
		}
	}
	as.act = act
	for i := range as.pos {
		as.pos[i] = -1
	}
	for p, i := range act {
		as.pos[i] = p
	}
	as.gen++
	// The packed batch layout just changed meaning: drop every carried
	// error-feedback residual keyed to the old working set.
	e.resetCompressState()
}

// kktViolations returns the screened coordinates whose exact KKT
// condition (prox.Screener.Violations — |g_i| > Lambda for l1,
// the regularizer-specific rule otherwise) fails at wCurr. layout is
// sorted; membership goes through a scratch bitset so the check stays
// O(d) regardless of the regularizer's access pattern.
func (e *engine) kktViolations(layout []int, g []float64) []int {
	as := e.as
	for w := range as.layoutBits {
		as.layoutBits[w] = 0
	}
	for _, i := range layout {
		as.layoutBits[i>>6] |= 1 << uint(i&63)
	}
	return e.scr.Violations(g, e.wCurr, as.inLayout)
}

// unionSorted merges two sorted, disjoint-or-not index sets.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
