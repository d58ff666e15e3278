package solver

import (
	"context"
	"fmt"

	"github.com/hpcgo/rcsfista/internal/dist"
)

// DistPNOptions configures the distributed Proximal Newton drivers of
// Section 3.3/5.5: the stochastic PN method whose inner solver is
// either plain (S-step) FISTA or RC-SFISTA with k-way
// iteration-overlapping.
type DistPNOptions struct {
	// Lambda, Gamma, B, Tol, FStar, Seed as in Options.
	Lambda, Gamma, B, Tol, FStar float64
	Seed                         uint64
	// OuterIter bounds the number of outer (Hessian) iterations.
	OuterIter int
	// InnerIter is the number of inner-solver iterations per
	// subproblem (the parameter tuned in Section 5.5).
	InnerIter int
	// K is the iteration-overlapping parameter of the RC-SFISTA inner
	// solver; K = 1 is the PN-with-FISTA baseline.
	K int
	// TraceName overrides the recorded series name.
	TraceName string
}

// DistProxNewtonContext runs the distributed stochastic Proximal Newton
// method under a context (see RCSFISTAContext for the cancellation
// contract). As Section 3.3 observes, applying (RC-)SFISTA to the Eq. 19
// subproblem is identical to applying the SFISTA recurrences while
// holding (H_n, R_n) fixed, so the driver delegates to the RC-SFISTA
// engine with a direct option mapping:
//
//   - one Hessian instance per outer iteration, reused for InnerIter
//     updates  ->  S = InnerIter;
//   - exact gradient anchor at the subproblem base point (Eq. 19 uses
//     grad f(w_n))  ->  variance reduction with EpochLen = K*InnerIter,
//     i.e. one exact-gradient refresh per communication round;
//   - K outer iterations' Hessians batched per allreduce -> K = K.
//
// With K = 1 this is "PN with FISTA as inner solver" (one packed
// d(d+1)/2-word Hessian allreduce and one d-word gradient allreduce per
// outer iteration);
// with K > 1 it is "PN with RC-SFISTA as inner solver", cutting
// latency by O(K) (Figure 7).
func DistProxNewtonContext(ctx context.Context, c dist.Comm, local LocalData, opts DistPNOptions) (*Result, error) {
	if opts.OuterIter <= 0 {
		opts.OuterIter = 100
	}
	if opts.InnerIter <= 0 {
		opts.InnerIter = 5
	}
	if opts.K <= 0 {
		opts.K = 1
	}
	name := opts.TraceName
	if name == "" {
		if opts.K == 1 {
			name = "pn-fista"
		} else {
			name = fmt.Sprintf("pn-rcsfista-k%d", opts.K)
		}
	}
	inner := Options{
		Lambda:          opts.Lambda,
		Gamma:           opts.Gamma,
		MaxIter:         opts.OuterIter * opts.InnerIter,
		Tol:             opts.Tol,
		FStar:           opts.FStar,
		B:               opts.B,
		K:               opts.K,
		S:               opts.InnerIter,
		VarianceReduced: true,
		EpochLen:        opts.K * opts.InnerIter,
		Seed:            opts.Seed,
		EvalEvery:       opts.InnerIter,
		TraceName:       name,
	}
	return RCSFISTAContext(ctx, c, local, inner)
}
