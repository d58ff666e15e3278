// Package solver implements the paper's optimization algorithms:
//
//   - FISTA (Algorithm 2) and ISTA, the deterministic first-order
//     baselines;
//   - SFISTA (Algorithms 3/4), the stochastic variance-reduced FISTA
//     whose gradient is estimated through subsampled Gram matrices
//     H_n = (1/mbar) X I_n I_n^T X^T and R_n = (1/mbar) X I_n I_n^T y;
//   - RC-SFISTA (Algorithm 5), the communication-avoiding formulation
//     that batches k Hessian instances per allreduce
//     (iteration-overlapping) and reuses each instance for S
//     consecutive updates (Hessian-reuse);
//   - the distributed Proximal Newton drivers of Section 3.3 / Figure 7,
//     with FISTA (k = 1) or RC-SFISTA as the inner solver. Algorithm 1
//     itself, for any smooth loss, is package erm's.
//
// All solvers run against the dist.Comm interface; a SelfComm gives the
// sequential algorithm and a World gives the P-rank simulation. One
// code path covers FISTA/SFISTA/RC-SFISTA: SFISTA is RC-SFISTA with
// k = S = 1, and deterministic FISTA is the further special case b = 1.
// The iterates are invariant to P (rank count) and, for S = 1, to k,
// because every rank derives identical sample index sets from the
// shared seed (paper Sections 5.2/5.5) and the allreduced Hessians make
// the update arithmetic identical to the sequential sequence.
package solver

import (
	"errors"
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// Options configures one solve. The zero value is not runnable; use
// Defaults or fill the required fields (Lambda may be zero, Gamma must
// be positive).
type Options struct {
	// Lambda is the l1 penalty of Eq. 3.
	Lambda float64
	// Reg overrides the regularizer g. Nil selects the paper's
	// prox.L1{Lambda} (Eq. 3); any prox.Operator (elastic net, ridge,
	// group lasso, ...) can be substituted — the engine only needs g's
	// proximal mapping and value. ActiveSet additionally requires a
	// prox.Screener (L1, ElasticNet or GroupL2), whose KKT rule drives
	// the screening. When Reg is a prox.L1 its penalty is authoritative
	// and Lambda is synced to it.
	Reg prox.Operator
	// Gamma is the step size. It must satisfy the Theorem 1 bounds;
	// in practice 1/L with L = lambda_max((1/m) X X^T) (see
	// prox.EstimateLipschitz and GammaFromLipschitz).
	Gamma float64
	// MaxIter bounds the number of solution updates (inner iterations
	// N across all epochs).
	MaxIter int
	// Tol is the relative objective error threshold of Section 5.1;
	// the solver stops once |F(w)-F*|/|F*| <= Tol. Requires FStar.
	// Tol <= 0 disables early stopping.
	Tol float64
	// GradMapTol is a reference-free stop: at every variance-reduction
	// snapshot the exact full gradient is available, so the proximal
	// gradient mapping norm ||w - Prox_gamma(w - gamma grad f(w))||/gamma
	// (zero exactly at optima) is checked against this threshold — from
	// the least-squares triple, plus its rounding bound, when the solve
	// holds one. Requires VarianceReduced; <= 0 disables.
	GradMapTol float64
	// FStar is the reference optimal objective value F(w*). NaN means
	// unknown: relative errors are not recorded and Tol is ignored.
	FStar float64

	// B is the sampling rate b in (0, 1]; mbar = floor(B*m) columns
	// are sampled per Hessian instance. B = 1 uses all samples
	// (deterministic).
	B float64
	// K is the iteration-overlapping parameter: K Hessian instances
	// are batched into a single allreduce (Algorithm 5 line 6).
	K int
	// S is the Hessian-reuse inner loop parameter: each Hessian
	// instance drives S consecutive solution updates (Algorithm 5
	// lines 9-15).
	S int
	// VarianceReduced selects the Eq. 9 gradient estimator (subtract
	// the sampled gradient at the epoch snapshot w-hat and add the
	// exact full gradient there). When false the plain subsampled
	// estimator of Algorithm 4 line 8 is used.
	VarianceReduced bool
	// EpochLen is the number of updates N between variance-reduction
	// snapshots (the inner loop length of Algorithm 3). Zero selects
	// the default.
	EpochLen int

	// W0 optionally warm-starts the solve; nil starts from zero
	// (Algorithm 5 line 1). The slice is copied, not retained. With
	// GradMapTol set, a warm start that already satisfies the
	// gradient-mapping stop returns before the first communication
	// round (zero rounds) — the fast path the serving layer's
	// lambda-path cache relies on for neighboring-lambda solves. That
	// exit's W, FinalObj and GradMap are pure functions of (W0, the data
	// partition, Lambda, Gamma, Reg): warm-started at a result's own W on
	// the same P, it hands back that result's W, FinalObj and GradMap bit
	// for bit, which is why the serving layer can answer such a repeat
	// from its cache without solving.
	W0 []float64
	// Seed drives the shared sampling streams.
	Seed uint64
	// EvalEvery is the number of updates between objective
	// evaluations/trace points. Zero means once per communication
	// round. Evaluation is instrumentation: its flops and messages are
	// excluded from the algorithm's cost accounting.
	EvalEvery int
	// TraceName overrides the name of the recorded series.
	TraceName string
	// Faults optionally injects communication faults into the batched
	// Hessian allreduce, where the stage-C exchanger handles them. Nil
	// runs the reliable network. A non-nil but empty plan is
	// bit-identical to nil: same iterates, costs and trace. When faults
	// are enabled the solver retries lost rounds (the plan's TimeoutSec,
	// MaxRetries and BackoffSec) and, when a round fails outright,
	// degrades to extra reuse passes on the last successfully
	// allreduced batch — dynamically raising the paper's Hessian-reuse
	// parameter S instead of stalling the whole SPMD run.
	Faults *dist.FaultPlan
	// Pipeline selects nothing: the engine picks its round loop itself,
	// blocking under ActiveSet and pipelined (round r+1's batch filled
	// while round r's allreduce is in flight) otherwise, and both loops
	// give the same iterates, costs and trace.
	//
	// Deprecated: ignored.
	Pipeline bool
	// ActiveSet enables dynamic l1 screening: the ranks hold the working
	// set A = supp(w) u {i : |grad f(w)_i| > Lambda*(1-ScreenMargin)}
	// (derived locally — it is a pure function of allreduced state),
	// fill only the |A| x |A| principal submatrix of the sampled Gram
	// (plus the full-length R, which keeps the exact KKT check
	// available), and ship the reduced slot |A|(|A|+1)/2 + d instead of
	// d(d+1)/2 + d. Rounds run in windows with A frozen; an exact
	// full-gradient KKT scan closes each window — on an adaptive cadence
	// of 4 to 32 rounds, and at once when the iterate support changes,
	// a lost round hands back a stale batch in an older layout, or the
	// solve stops — and re-expands A, redoing the window on the expanded
	// set, when any screened coordinate violates |grad f(w)_i| <=
	// Lambda, so the method converges to the same optimum as the dense
	// path (final objective agrees to solver precision; iterates are not
	// bit-equal because screened coordinates are frozen at zero
	// mid-window). The rule shown is the l1 instance; the engine is
	// generic over prox.Screener, so elastic net screens on
	// |grad f_i + λ₂w_i| > λ₁(1-margin) and group lasso on per-group
	// gradient norms with a group-granular working set. Requires a
	// screenable regularizer. Default off: every existing configuration
	// is bit-identical to its golden fixture.
	ActiveSet bool
	// ScreenMargin is the safety margin of the screening rule: a zero
	// coordinate stays screened only while |grad f(w)_i| <=
	// Lambda*(1-ScreenMargin), so larger margins admit more borderline
	// coordinates and trigger fewer KKT re-expansions. Zero selects the
	// default 0.1; must lie in [0, 1).
	ScreenMargin float64
	// CompressTier selects the wire precision of the solver's
	// collectives: "off"/""/"f64" (full precision, the default),
	// "f32" (error-feedback float32, ~2x fewer words), "i8"
	// (error-feedback dithered int8, ~7x fewer words, iterates track
	// the uncompressed trajectory to ~1e-5 in objective), or "auto"
	// (per-collective tier chosen each round from the calibrated
	// per-tier betas, the payload length and the gradient-map norm —
	// aggressive i8 early, tightening to f32/f64 near convergence; the
	// choice is derived from allreduced state, so all ranks agree).
	// Under a fixed tier or auto, the batched Hessian allreduce, the
	// stage-A gradient refresh, the KKT full-gradient scan and the
	// objective/eval scalar reductions all run tiered, each compressed
	// reduction with its own error-feedback residual stream (scalar
	// eval reductions floor to f32 and carry no residual — they are
	// one-shot instrumentation values). Composes with Faults: a lost
	// round rolls its residual update back so degraded/skipped rounds
	// never double-apply feedback. Default off: every existing
	// configuration is bit-identical to its golden fixture.
	CompressTier string
}

// Defaults returns options with sensible experiment defaults: k = S = 1,
// b = 0.1, variance reduction on.
func Defaults() Options {
	return Options{
		Lambda:          0.1,
		MaxIter:         1000,
		Tol:             0,
		FStar:           math.NaN(),
		B:               0.1,
		K:               1,
		S:               1,
		VarianceReduced: true,
		Seed:            42,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.Gamma <= 0 {
		return errors.New("solver: Gamma must be positive (use GammaFromLipschitz)")
	}
	if o.Lambda < 0 {
		return errors.New("solver: Lambda must be non-negative")
	}
	if o.MaxIter <= 0 {
		return errors.New("solver: MaxIter must be positive")
	}
	if o.B <= 0 || o.B > 1 {
		return fmt.Errorf("solver: sampling rate B = %g out of (0,1]", o.B)
	}
	if o.K < 1 {
		return errors.New("solver: K must be >= 1")
	}
	if o.S < 1 {
		return errors.New("solver: S must be >= 1")
	}
	if o.EpochLen < 0 || o.EvalEvery < 0 {
		return errors.New("solver: EpochLen and EvalEvery must be non-negative")
	}
	if o.Tol > 0 && (math.IsNaN(o.FStar) || o.FStar == 0) {
		// Without a reference optimum the relative-error stop
		// |F(w)-F*|/|F*| <= Tol can never fire and the solve silently
		// runs to MaxIter.
		return errors.New("solver: Tol > 0 requires a known reference optimum FStar " +
			"(compute one with Reference, or use the reference-free GradMapTol stop)")
	}
	if o.GradMapTol > 0 && !o.VarianceReduced {
		// The gradient-mapping stop is only evaluated at
		// variance-reduction snapshots, where the exact full gradient
		// is available; without them it can never fire.
		return errors.New("solver: GradMapTol requires VarianceReduced " +
			"(the gradient-mapping stop is checked at snapshot refreshes only)")
	}
	if o.ActiveSet {
		if o.Reg == nil && o.Lambda <= 0 {
			return errors.New("solver: ActiveSet requires Lambda > 0 (screening is the l1 KKT rule)")
		}
		if o.Reg != nil {
			if _, ok := o.Reg.(prox.Screener); !ok {
				return fmt.Errorf("solver: ActiveSet requires a screenable regularizer "+
					"(prox.Screener: L1, ElasticNet or GroupL2), got %T", o.Reg)
			}
		}
	}
	if o.ScreenMargin < 0 || o.ScreenMargin >= 1 || math.IsNaN(o.ScreenMargin) {
		return errors.New("solver: ScreenMargin must lie in [0, 1)")
	}
	if o.CompressTier != "" && o.CompressTier != "auto" {
		if _, err := dist.ParseTier(o.CompressTier); err != nil {
			return fmt.Errorf("solver: CompressTier %q: want off, f32, i8 or auto", o.CompressTier)
		}
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// withDefaults returns a copy with zero-valued tunables resolved.
func (o Options) withDefaults() Options {
	if o.K < 1 {
		o.K = 1
	}
	if o.S < 1 {
		o.S = 1
	}
	if o.EpochLen == 0 {
		// Default epoch: roughly 5 Hessian instances between
		// variance-reduction snapshots, floored at 40 updates so the
		// momentum sequence can develop. Too-long epochs let the
		// switched-Hessian momentum dynamics resonate (S > 1 diverges);
		// too-short epochs waste the acceleration.
		o.EpochLen = 5 * o.S
		if o.EpochLen < 40 {
			o.EpochLen = 40
		}
	}
	if o.EvalEvery == 0 {
		o.EvalEvery = o.K * o.S
	}
	if o.Reg == nil {
		o.Reg = prox.L1{Lambda: o.Lambda}
	} else if l1, ok := o.Reg.(prox.L1); ok {
		// An explicit Reg is authoritative. Historically a disagreeing
		// Lambda (e.g. prox.L1{0.2} with Lambda: 0.1) ran the proximal
		// steps at the Reg value while the screening threshold and
		// anything else derived from Lambda read the scalar; syncing here
		// (and routing screening through prox.Screener, which carries its
		// own penalty) makes every Lambda-derived path see the value the
		// updates actually use.
		o.Lambda = l1.Lambda
	}
	if o.FStar == 0 {
		// A zero F* is almost surely an unset field rather than a true
		// zero optimum; treat as unknown.
		o.FStar = math.NaN()
	}
	if o.ActiveSet && o.ScreenMargin == 0 {
		o.ScreenMargin = 0.1
	}
	o.CompressTier = canonicalTier(o.CompressTier)
	return o
}

// GammaFromLipschitz returns the conventional FISTA step 1/L. Theorem 1
// additionally requires gamma^-1 >= L/2 + sqrt(1/4 + 4L^2(m-mbar)/(mbar(m-1)))
// (Eq. 10) in the stochastic setting.
func GammaFromLipschitz(l float64) float64 {
	if l <= 0 {
		panic("solver: non-positive Lipschitz constant")
	}
	return 1 / l
}
