// Lasso path: trace the regularization path of an l1-regularized least
// squares problem — the workload class the paper's introduction
// motivates (feature selection / sparse regression on tall data). The
// path is computed by warm-started solves over a log-spaced grid of
// penalties, on a covtype-shaped instance, each answered from the
// least-squares triple (G = XXᵀ/m, r = Xy/m, c = ‖y‖²/2m) with no
// world: solver.SolveTriple, the paper's b = 1 corner, certified by the
// triple's own rounding-error bound, so no point reads the data after
// the fill. The triple is filled once (solver.FillTriple), with its
// step 1/λmax(G), and every path point reads it.
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

	obj := prox.NewObjective(prob.X, prob.Y, prox.L1{Lambda: 0})

	const steps, procs = 12, 4
	// One triple for this (data, world size), filled once.
	tri := solver.FillTriple(prob.X, prob.Y, procs, nil)
	fmt.Printf("least-squares triple: %.1f kB, step 1/lambda_max(G) = %.5f\n\n", float64(tri.Bytes())/1e3, tri.Step())
	fmt.Printf("%-12s %-8s %-10s %-8s %s\n", "lambda", "nnz", "loss", "iters", "support")
	var warm []float64 // warm-start each path point at the previous solution
	for i := 0; i < steps; i++ {
		lam := lmax * math.Pow(0.6, float64(i+1))
		opts := solver.Defaults()
		opts.Lambda = lam
		opts.GradMapTol = 1e-6
		opts.MaxIter = 4000
		opts.W0 = warm

		res, err := solver.SolveTriple(context.Background(), tri, perf.Comet(), opts)
		if err != nil {
			log.Fatal(err)
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
	fmt.Println("smaller penalties admit more features; the loss decreases monotonically along the path.")
}
