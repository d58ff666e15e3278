// Lasso path: trace the regularization path of an l1-regularized least
// squares problem — the workload class the paper's introduction
// motivates (feature selection / sparse regression on tall data). The
// path is computed by warm-started solves over a log-spaced grid of
// penalties, on a covtype-shaped instance, each answered from the
// least-squares triple (G = XXᵀ/m, r = Xy/m, c = ‖y‖²/2m) with no
// world: solver.SolveTriple, the paper's b = 1 corner, certified by one
// data pass. Every point shares one solver.Resident, so the triple is
// filled once for the whole path and read by every later point.
//
// Run with:
//
//	go run ./examples/lasso_path
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

func main() {
	prob, err := data.LoadWith("covtype", 6000, 54, 3)
	if err != nil {
		log.Fatal(err)
	}
	d, m := prob.Dim()
	fmt.Printf("covtype-shaped instance: %d features, %d samples\n", d, m)

	// lambda_max: the smallest penalty whose solution is all zeros.
	g0 := make([]float64, d)
	prob.X.MulVec(g0, prob.Y, nil)
	var lmax float64
	for _, v := range g0 {
		lmax = math.Max(lmax, math.Abs(v))
	}
	lmax /= float64(m)
	fmt.Printf("lambda_max = %.5f\n\n", lmax)

	l := solver.SampledLipschitz(prob.X, prob.Y, 0.2, 8, 3)
	gamma := solver.GammaFromLipschitz(l)
	obj := prox.NewObjective(prob.X, prob.Y, prox.L1{Lambda: 0})

	const steps, procs = 12, 4
	// One resident triple for this (data, world size), capped at the
	// bytes of X and y.
	resident := solver.NewResident(solver.NewResidentBudget(solver.DataBytes(prob.X, prob.Y)))
	fills := 0
	fmt.Printf("%-12s %-8s %-10s %-8s %s\n", "lambda", "nnz", "loss", "iters", "support")
	var warm []float64 // warm-start each path point at the previous solution
	for i := 0; i < steps; i++ {
		lam := lmax * math.Pow(0.6, float64(i+1))
		opts := solver.Defaults()
		opts.Lambda = lam
		opts.Gamma = gamma
		opts.GradMapTol = 1e-6
		opts.MaxIter = 4000
		opts.W0 = warm

		res, err := solver.SolveTriple(context.Background(), prob.X, prob.Y, procs, perf.Comet(), opts, resident)
		if err != nil {
			log.Fatal(err)
		}
		if res.GramFilled {
			fills++
		}
		nnz := 0
		var bar strings.Builder
		for _, v := range res.W {
			if v != 0 {
				nnz++
				bar.WriteByte('#')
			} else {
				bar.WriteByte('.')
			}
		}
		warm = res.W
		loss := obj.Smooth(res.W, nil)
		fmt.Printf("%-12.6f %-8d %-10.5f %-8d %s\n", lam, nnz, loss, res.Iters, bar.String())
	}
	fmt.Printf("\nleast-squares triple fills over %d path points: %d\n", steps, fills)
	fmt.Println("smaller penalties admit more features; the loss decreases monotonically along the path.")
}
