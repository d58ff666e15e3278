// Mixed compression x fault x screening acceptance matrix for the
// tiered quantized collectives (Options.CompressTier): every cell runs
// the same instance twice under an adversarial FaultPlan — once at
// full precision, once through the quantized ladder — to a converged
// budget, and the two runs must agree on the objective (f32 to 1e-6,
// i8/auto to 1e-5) while the compressed run ships strictly fewer
// modeled wire words. The fault decisions are seeded per round and
// rank, never by payload values, so both runs see the identical
// drop/corrupt/crash structure and the comparison isolates exactly the
// wire precision.
//
// The active-set cells are the residual-reset oracle: the working set
// changes generation as the support settles, each change reshapes the
// packed batch layout, and a stale error-feedback residual applied
// across the reshape would corrupt the trajectory far beyond the
// tolerance. The elastic-net and group-lasso regularizers drive the
// two distinct screening rules (shifted gradient rule, per-group
// norms), and the faulty rounds exercise the TieredExchanger's
// residual rollback: a lost round must not double-apply the
// quantization residual it already folded.
//
// The matrix runs on a well-scaled synthetic instance. That is the
// fixed-i8 rung's honest domain: on wide-dynamic-range data (covtype)
// the per-chunk dither overwhelms the small curvature directions and
// a fixed i8 run drifts — TestTierAutoRobustness below pins that the
// auto policy's stagnation ratchet contains exactly that failure mode.
package rcsfista_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// tierMatrixProb caches the matrix's synthetic lasso instance and its
// step size: generated once, solved ~50 times across the cells.
var tierMatrixProb struct {
	once  sync.Once
	prob  *data.Problem
	gamma float64
}

func tierMatrixSetup(t *testing.T) (*data.Problem, float64) {
	t.Helper()
	tierMatrixProb.once.Do(func() {
		p := data.Generate(data.GenSpec{D: 64, M: 1600, Density: 0.3, Lambda: 0.05, Seed: 29, NoiseStd: 0.01})
		l := solver.SampledLipschitz(p.X, p.Y, 0.2, 8, 551)
		tierMatrixProb.prob, tierMatrixProb.gamma = p, solver.GammaFromLipschitz(l)
	})
	return tierMatrixProb.prob, tierMatrixProb.gamma
}

func tierMatrixOpts(t *testing.T, active bool, reg string) solver.Options {
	t.Helper()
	prob, gamma := tierMatrixSetup(t)
	o := solver.Defaults()
	o.Lambda = prob.Lambda
	o.Gamma = gamma
	o.MaxIter = 1500
	o.Tol = 0 // fixed budget, long enough that every run converges
	o.B = 0.2
	o.K = 2
	o.S = 2
	o.Seed = 123
	o.ActiveSet = active
	switch reg {
	case "en":
		o.Reg = prox.ElasticNet{Lambda1: prob.Lambda, Lambda2: 0.01}
	case "group":
		groups, err := prox.ParseGroups("size:4", prob.X.Rows)
		if err != nil {
			t.Fatal(err)
		}
		o.Reg = prox.GroupL2{Lambda: prob.Lambda, Groups: groups}
	}
	o.Faults = goldenFaultPlan()
	return o
}

func tierMatrixSolve(t *testing.T, p int, o solver.Options, tier string) *solver.Result {
	t.Helper()
	o.CompressTier = tier
	w := newGoldenWorld(p)
	prob, _ := tierMatrixSetup(t)
	res, err := solver.SolveDistributed(w, prob.X, prob.Y, o)
	if err != nil {
		t.Fatalf("tier %q: %v", tier, err)
	}
	return res
}

func TestTierFaultMatrix(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		for _, active := range []bool{false, true} {
			for _, reg := range []string{"en", "group"} {
				p, active, reg := p, active, reg
				mode := "dense"
				if active {
					mode = "active"
				}
				o := tierMatrixOpts(t, active, reg)
				base := tierMatrixSolve(t, p, o, "")
				for _, tier := range []string{"f32", "i8", "auto"} {
					tier := tier
					t.Run(fmt.Sprintf("p%d/%s/%s/%s", p, mode, reg, tier), func(t *testing.T) {
						comp := tierMatrixSolve(t, p, o, tier)

						tol := 1e-5
						if tier == "f32" {
							tol = 1e-6
						}
						if d := math.Abs(comp.FinalObj - base.FinalObj); !(d <= tol) {
							t.Errorf("|dF| = %g > %g under faults", d, tol)
						}
						if p > 1 && comp.Cost.Words >= base.Cost.Words {
							t.Errorf("compressed faulty run shipped %d words, uncompressed %d",
								comp.Cost.Words, base.Cost.Words)
						}
						// The fault structure is precision-independent: both
						// runs must have seen the same degraded/skipped rounds,
						// or the comparison above compared different algorithms.
						if comp.Faults.DegradedRounds != base.Faults.DegradedRounds ||
							comp.Faults.SkippedRounds != base.Faults.SkippedRounds {
							t.Errorf("fault structure diverged: degraded/skipped %d/%d vs %d/%d",
								comp.Faults.DegradedRounds, comp.Faults.SkippedRounds,
								base.Faults.DegradedRounds, base.Faults.SkippedRounds)
						}
					})
				}
			}
		}
	}
}

// TestTierAutoRobustness pins the auto policy's objective-stagnation
// ratchet on data where the fixed i8 rung is genuinely unstable: the
// covtype Gram batch spans a wide dynamic range, the per-chunk dither
// holds the gradient-map norm above the tightening threshold, and
// without the ratchet the policy would stay on i8 while the iterate
// drifts along the flat directions — diverging without bound. With
// the ratchet the stalled objective caps the ladder at f32 and the
// long-horizon run stays within 1e-4 of the uncompressed one (the
// residue of the early i8 phase on a problem with no strong convexity
// to forget it) at roughly half the wire words.
func TestTierAutoRobustness(t *testing.T) {
	env := goldenSetup(t)
	for _, reg := range []string{"l1", "group"} {
		for _, faulty := range []bool{false, true} {
			reg, faulty := reg, faulty
			t.Run(fmt.Sprintf("%s/faults=%t", reg, faulty), func(t *testing.T) {
				o := env.opts()
				o.MaxIter = 6000
				if reg == "group" {
					groups, err := prox.ParseGroups("size:4", env.prob.X.Rows)
					if err != nil {
						t.Fatal(err)
					}
					o.Reg = prox.GroupL2{Lambda: env.prob.Lambda, Groups: groups}
				}
				if faulty {
					o.Faults = goldenFaultPlan()
				}
				run := func(tier string) *solver.Result {
					oo := o
					oo.CompressTier = tier
					w := newGoldenWorld(4)
					res, err := solver.SolveDistributed(w, env.prob.X, env.prob.Y, oo)
					if err != nil {
						t.Fatalf("tier %q: %v", tier, err)
					}
					return res
				}
				base := run("")
				auto := run("auto")
				if d := math.Abs(auto.FinalObj - base.FinalObj); !(d <= 1e-4) {
					t.Errorf("|dF| = %g > 1e-4: the stagnation ratchet failed to contain the i8 phase", d)
				}
				if auto.Cost.Words >= base.Cost.Words {
					t.Errorf("auto shipped %d words, uncompressed %d", auto.Cost.Words, base.Cost.Words)
				}
			})
		}
	}
}
