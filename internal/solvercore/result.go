package solvercore

import (
	"math"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Result reports the outcome of one solve. Every solver in the
// repository returns this shape (the solver package re-exports it as
// solver.Result).
type Result struct {
	// W is the final iterate.
	W []float64
	// Iters is the number of solution updates performed.
	Iters int
	// Rounds is the number of communication rounds (Hessian-batch
	// allreduces) performed.
	Rounds int
	// Converged reports whether the Tol stopping criterion fired.
	Converged bool
	// FinalObj is F(W); FinalRelErr is |F(W)-F*|/|F*| (NaN when F* is
	// unknown).
	FinalObj, FinalRelErr float64
	// GradMap is the proximal gradient-mapping norm
	// ||W - prox_gamma(W - gamma grad f(W))|| / gamma at W, taken from the
	// exact full gradient the solve computed there. It is the certificate
	// behind the GradMapTol stop, so RC-SFISTA sets it only when that stop
	// ended the solve on full-precision collectives; it is NaN whenever
	// the solve did not measure it at W (MaxIter or Tol exits, partial
	// results, any CompressTier, and every other engine).
	GradMap float64
	// Cost is the per-rank critical-path cost (max over ranks for
	// distributed runs) of the algorithm, excluding instrumentation.
	Cost perf.Cost
	// ModelSeconds is the alpha-beta-gamma time of Cost on the run's
	// machine; WallSeconds is measured wall-clock.
	ModelSeconds, WallSeconds float64
	// Trace is the recorded convergence history (rank 0 only).
	Trace *trace.Series
	// Faults summarizes the injected-fault resilience activity; the
	// zero value means the run saw no faults (or ran without a plan).
	Faults FaultStats
}

// FaultStats counts the solver's resilience activity under an injected
// dist.FaultPlan. All counters are identical across ranks because the
// fault verdicts are a shared pure function of (seed, round, attempt).
type FaultStats struct {
	// Retries is the number of extra allreduce attempts issued.
	Retries int
	// FailedRounds is the number of rounds lost after all retries.
	FailedRounds int
	// DegradedRounds counts failed rounds absorbed by reusing the last
	// good Hessian batch (stale-H updates: S raised dynamically).
	DegradedRounds int
	// SkippedRounds counts failed rounds before any batch had ever
	// arrived, where no stale Hessian existed to fall back on.
	SkippedRounds int
	// StallSec is the total modeled waiting (timeouts, backoff,
	// straggler delays, restart) charged to this rank.
	StallSec float64
}

// RelErr returns the relative objective error of objective value f
// against reference fstar, or NaN when the reference is unknown.
func RelErr(f, fstar float64) float64 {
	if math.IsNaN(fstar) {
		return math.NaN()
	}
	if fstar == 0 {
		return math.Abs(f)
	}
	return math.Abs((f - fstar) / fstar)
}
