// Proximal Newton: the classic sequential Algorithm 1 (sampled
// Hessian, FISTA subproblem solves, backtracking line search), then
// RC-SFISTA as the inner solver of a distributed Proximal Newton
// method (paper Section 3.3 / Figure 7) against the FISTA inner solver
// baseline.
//
// Run with:
//
//	go run ./examples/proximal_newton
package main

import (
	"fmt"
	"log"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

func main() {
	prob, err := data.LoadWith("mnist", 4000, 96, 11)
	if err != nil {
		log.Fatal(err)
	}
	_, fstar := solver.Reference(prob.X, prob.Y, prob.Lambda, 8000)
	fmt.Printf("mnist-shaped instance, F(w*) = %.6f\n\n", fstar)

	// Classic sequential Algorithm 1: a 20 % Hessian sample per outer
	// iteration, FISTA on each Eq. 19 subproblem.
	res, err := erm.ProxNewton(prob.X, prob.Y, erm.Options{
		Lambda:     prob.Lambda,
		OuterIter:  40,
		InnerIter:  15,
		B:          0.2,
		LineSearch: true,
		Tol:        1e-3,
		FStar:      fstar,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential PN: outer iters=%d relerr=%.3g converged=%v\n",
		res.Iters, res.FinalRelErr, res.Converged)

	// Distributed stochastic PN at P=32: FISTA inner solver (k=1)
	// versus RC-SFISTA inner solver (k=4, 8).
	fmt.Println()
	gamma := solver.GammaFromLipschitz(solver.SampledLipschitz(prob.X, prob.Y, 0.1, 8, 11))
	var baseline float64
	for _, k := range []int{1, 4, 8} {
		world := dist.NewWorld(32, perf.Comet())
		res, err := solver.SolvePNDistributed(world, prob.X, prob.Y, solver.DistPNOptions{
			Lambda: prob.Lambda, Gamma: gamma, B: 0.1,
			Tol: 1e-2, FStar: fstar, Seed: 11,
			OuterIter: 400, InnerIter: 5, K: k,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "PN + FISTA inner solver   (k=1)"
		if k > 1 {
			label = fmt.Sprintf("PN + RC-SFISTA inner solver (k=%d)", k)
		}
		if k == 1 {
			baseline = res.ModelSeconds
		}
		fmt.Printf("%s: rounds=%3d modeled=%.3gs speedup=%.2fx relerr=%.3g\n",
			label, res.Rounds, res.ModelSeconds, baseline/res.ModelSeconds, res.FinalRelErr)
	}
	fmt.Println("\nbatching k outer iterations' sampled Hessians into one allreduce cuts the latency term by k.")
}
