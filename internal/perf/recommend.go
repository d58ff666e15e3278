package perf

import "math"

// Recommendation is an automatically chosen (k, S) configuration.
type Recommendation struct {
	// K is the suggested iteration-overlapping parameter.
	K int
	// S is the suggested Hessian-reuse parameter.
	S int
	// PredictedSpeedup is the Eq. 24 modeled speedup over k = S = 1.
	PredictedSpeedup float64
}

// Recommend derives a practical (k, S) from the Section 4.2 bounds and
// the Eq. 24 runtime model: k is capped by the Eq. 25
// latency/bandwidth crossover (boosted while latency still dominates
// the modeled runtime), and S by the Eq. 27 k*S budget, both clamped
// to small powers of two so the choice is robust to model error. This
// is the programmatic counterpart of the paper's manual tuning
// ("the value of k/S is tuned for all benchmarks").
func Recommend(m Machine, p AlgoParams) Recommendation {
	if p.K < 1 {
		p.K = 1
	}
	if p.S < 1 {
		p.S = 1
	}
	base := p
	base.K, base.S = 1, 1
	t1 := Runtime(m, base)

	// Candidate grid: powers of two up to min(128, N).
	maxK := 128
	if p.N > 0 && p.N < maxK {
		maxK = p.N
	}
	bounds := ParameterBounds(m, base)
	best := Recommendation{K: 1, S: 1, PredictedSpeedup: 1}
	for k := 1; k <= maxK; k *= 2 {
		for s := 1; s <= 32; s *= 2 {
			// Respect the Eq. 27 trade-off where it binds.
			if bounds.KSProduct > 0 && float64(k)*float64(s) > 4*math.Max(1, bounds.KSProduct) {
				continue
			}
			cand := p
			cand.K, cand.S = k, s
			// Hessian-reuse shortens the run: model the paper's
			// empirical ~linear round reduction up to the Eq. 28
			// bound with diminishing returns beyond S ~ 5.
			eff := cand
			eff.N = int(float64(p.N) / math.Min(float64(s), 5))
			if eff.N < 1 {
				eff.N = 1
			}
			t := Runtime(m, eff)
			if sp := t1 / t; sp > best.PredictedSpeedup {
				best = Recommendation{K: k, S: s, PredictedSpeedup: sp}
			}
		}
	}
	return best
}
