package solver_test

import (
	"fmt"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// ExampleSolveDistributed runs RC-SFISTA on a 4-rank simulated cluster
// and reports the communication profile.
func ExampleSolveDistributed() {
	prob := data.Generate(data.GenSpec{
		D: 16, M: 800, Density: 0.5, TrueNnz: 4, NoiseStd: 0, Lambda: 0.02, Seed: 7,
	})
	opts := solver.Defaults()
	opts.Lambda = prob.Lambda
	opts.Gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(prob.X, prob.Y, 0.25, 8, 7))
	opts.B = 0.25
	opts.K = 8 // batch 8 Hessian instances per allreduce
	opts.MaxIter = 64
	opts.EvalEvery = 64

	world := dist.NewWorld(4, perf.Comet())
	res, err := solver.SolveDistributed(world, prob.X, prob.Y, opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("updates=%d rounds=%d\n", res.Iters, res.Rounds)
	fmt.Printf("messages per rank=%d\n", res.Cost.Messages)
	// Output:
	// updates=64 rounds=8
	// messages per rank=18
}

// ExampleRCSFISTA shows the single-process path via SelfComm: the same
// engine, no communication.
func ExampleRCSFISTA() {
	prob := data.Generate(data.GenSpec{
		D: 8, M: 200, Density: 1, TrueNnz: 2, NoiseStd: 0, Lambda: 0.05, Seed: 3,
	})
	opts := solver.Defaults()
	opts.Lambda = prob.Lambda
	opts.Gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(prob.X, prob.Y, 1, 1, 3))
	opts.B = 1 // full batch: deterministic FISTA
	opts.VarianceReduced = false
	opts.MaxIter = 500

	c := dist.NewSelfComm(perf.Comet())
	res, err := solver.RCSFISTA(c, solver.Partition(prob.X, prob.Y, 1, 0), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	nnz := 0
	for _, v := range res.W {
		if v != 0 {
			nnz++
		}
	}
	fmt.Printf("recovered %d-sparse model, zero communication: %v\n",
		nnz, res.Cost.Messages == 0)
	// Output:
	// recovered 2-sparse model, zero communication: true
}
