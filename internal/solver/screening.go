package solver

// Screening-rule side of the active-set engine (see activeset.go for
// the shared state, activeset_window.go for the round protocol): the
// exact-gradient evaluation, the working-set derivation, and the KKT
// violation check a scan runs.

import "github.com/hpcgo/rcsfista/internal/mat"

// exactGradient writes the exact full gradient (1/m)(X X^T w - X y) at
// wCurr into dst: one local Gram-free pass plus one d-word allreduce,
// both charged — the screening correctness check is part of the
// algorithm, not instrumentation.
func (e *engine) exactGradient(dst []float64) {
	cost := e.c.Cost()
	e.local.X.MulVecT(e.scratch, e.wCurr, cost)
	mat.Axpy(-1, e.local.Y, e.scratch, cost)
	mat.Zero(dst)
	e.local.X.MulVec(dst, e.scratch, cost)
	mat.Scal(1/float64(e.m), dst, cost)
	e.kktEF.Reduce(e.c, dst, e.tierAt(len(dst)))
	if e.tiers.auto {
		// The exact gradient doubles as the auto tier policy's
		// tightening signal: non-variance-reduced active-set runs never
		// take the snapshot pass, so this is their only source of the
		// proximal gradient-map norm. Pure function of allreduced state,
		// and control-plane only — uncharged, like evaluate's
		// instrumentation, so the policy's bookkeeping cannot eat the
		// modeled time its tier choices save.
		mat.AddScaled(e.tmp, e.wCurr, -e.gamma, dst, nil)
		e.reg.Apply(e.tmp, e.tmp, e.gamma, nil)
		mat.Sub(e.tmp, e.wCurr, e.tmp, nil)
		e.gradMapNorm = mat.Nrm2(e.tmp, nil) / e.gamma
	}
}

// deriveActive computes the next window's working set from the current
// (shared) state. It issues no collective: the set is a pure function
// of allreduced quantities (gExact and the replicated iterates), so
// every rank builds the identical one — the same rationale that lets
// the shared sample streams skip coordination. The iterate supports are
// included so the reduced FISTA recurrences v = w + mu*(w - wPrev) and
// H(v - wSnap) reproduce the dense arithmetic restricted to A; the
// regularizer's gradient rule (prox.Screener.GradScreen — |g_i| >
// λ(1-margin) for l1, the shifted rule for elastic net, per-group norms
// for group lasso) admits every coordinate the KKT conditions cannot
// screen at margin, and CloseSupport keeps the set group-closed under
// group penalties.
func (e *engine) deriveActive() {
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
	e.scr.GradScreen(as.bits, as.gExact, e.wCurr, as.margin)
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
// condition (prox.Screener.Violations — |gExact_i| > Lambda for l1,
// the regularizer-specific rule otherwise) fails at wCurr. layout is
// sorted; membership goes through a scratch bitset so the check stays
// O(d) regardless of the regularizer's access pattern.
func (e *engine) kktViolations(layout []int) []int {
	as := e.as
	for w := range as.layoutBits {
		as.layoutBits[w] = 0
	}
	for _, i := range layout {
		as.layoutBits[i>>6] |= 1 << uint(i&63)
	}
	return e.scr.Violations(as.gExact, e.wCurr, func(i int) bool {
		return as.layoutBits[i>>6]&(1<<uint(i&63)) != 0
	})
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
