package solver

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/mat"
)

// deltaPass is the InnerPass implementing the literal postponed-update
// recurrences of Eqs. 16-17 — a test-held reference: the production
// engine runs the direct form only, and the tests plug this pass into
// engine.run (deltaStages). v is never recomputed from w; instead the
// increments
//
//	Delta-w_n = S_{lambda*gamma}(theta_n) - w_{n-1}
//	Delta-v_n = (1 + mu_{n+1}) Delta-w_n - mu_n Delta-w_{n-1}
//
// are accumulated onto the round-base vectors. The update sequence is
// algebraically identical to the direct form and differs only by
// floating point round-off; TestDeltaFormEquivalence pins the gap.
// Restricted to S = 1 (newDeltaPass panics otherwise), matching the
// paper's presentation of the unrolled recurrences. It keeps its own
// copy of the post-update interleaving rather than engine.afterUpdate,
// because it must reset its recurrence state after a snapshot refresh.
//
// Note on the momentum schedule: the paper's Algorithm 2 line 3 prints
// t_n = (1 + sqrt(1 + t_{n-1}^2))/2, which has a bounded fixed point
// (t* = 4/3) and therefore cannot give t_N = O(N) as Theorem 1 uses.
// We implement the standard FISTA schedule t_n = (1+sqrt(1+4t^2))/2
// (Beck & Teboulle 2009), which the theorem's rate requires; the paper
// listing is a typo. See DESIGN.md.
type deltaPass struct {
	*engine

	vCur   []float64 // v_n, accumulated
	dwPrev []float64 // Delta-w_{n-1}
	dw     []float64
	wNew   []float64
	t      float64 // t_{n-1}, separate from the engine's direct-form t
}

func newDeltaPass(e *engine) *deltaPass {
	if e.opts.S != 1 {
		panic("solver: delta-form updates are implemented for S=1 only")
	}
	p := &deltaPass{
		engine: e,
		vCur:   make([]float64, e.d),
		dwPrev: make([]float64, e.d),
		dw:     make([]float64, e.d),
		wNew:   make([]float64, e.d),
		t:      1,
	}
	copy(p.vCur, e.wCurr)
	return p
}

// Process runs stage D in delta form on one allreduced batch.
func (p *deltaPass) Process(shared []float64) bool {
	e := p.engine
	opts := e.opts
	cost := e.c.Cost()
	for j := 0; j < opts.K; j++ {
		h, r := e.slotView(shared, j, e.d)

		// Momentum coefficients mu_n and the lookahead mu_{n+1}.
		tn := (1 + math.Sqrt(1+4*p.t*p.t)) / 2
		tn1 := (1 + math.Sqrt(1+4*tn*tn)) / 2
		muN := (p.t - 1) / tn
		muN1 := (tn - 1) / tn1
		p.t = tn
		cost.AddFlops(12)

		// Gradient at v_n from the current Hessian instance.
		if opts.VarianceReduced {
			mat.Sub(e.tmp, p.vCur, e.wSnap, cost)
			h.MulVec(e.grad, e.tmp, cost)
			mat.Axpy(1, e.fullGrad, e.grad, cost)
		} else {
			h.MulVec(e.grad, p.vCur, cost)
			mat.Axpy(-1, r, e.grad, cost)
		}

		// w_n = S(theta_n); Delta-w_n = w_n - w_{n-1} (Eq. 16).
		mat.AddScaled(p.wNew, p.vCur, -e.gamma, e.grad, cost)
		e.reg.Apply(p.wNew, p.wNew, e.gamma, cost)
		mat.Sub(p.dw, p.wNew, e.wCurr, cost)

		// Delta-v_n per Eq. 17, then v_{n+1} = v_n + Delta-v_n.
		for i := range p.vCur {
			p.vCur[i] += (1+muN1)*p.dw[i] - muN*p.dwPrev[i]
		}
		cost.AddFlops(int64(4 * e.d))

		copy(p.dwPrev, p.dw)
		copy(e.wPrev, e.wCurr)
		copy(e.wCurr, p.wNew)
		e.rec.Iter++
		e.wVer++
		e.sinceSnap++
		e.sinceEval++

		if opts.VarianceReduced && e.sinceSnap >= opts.EpochLen {
			e.refreshSnapshot() // resets e.t; delta state below
			if e.gradMapStop {
				e.checkpoint()
				e.rec.Converged = true
				return true
			}
			p.t = 1
			copy(p.vCur, e.wCurr)
			mat.Zero(p.dwPrev)
			e.sinceSnap = 0
		}
		if e.sinceEval >= opts.EvalEvery {
			e.sinceEval = 0
			if e.checkpoint() {
				e.rec.Converged = true
				return true
			}
		}
		if e.rec.Iter >= opts.MaxIter {
			return true
		}
	}
	return false
}
