// Scenario plumbing for the CLI: resolving -reg/-l2/-groups into a
// prox operator and running the generalized-loss proximal newton
// branch that -loss {logistic,huber,quantile} selects.
package main

import (
	"context"
	"fmt"
	"io"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/scenario"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// buildScenarioReg resolves the regularizer flags against the loaded
// problem dimension. Any family beyond the default l1 goes through
// the scenario builder; the dual (cocoa) and least-squares-Newton
// (pn) baselines are l1-only. A nil operator means "default l1 from
// Options.Lambda".
func buildScenarioReg(algo, name string, l2 float64, groupsSpec string, prob *data.Problem) (prox.Operator, error) {
	if name == "" || name == "l1" {
		if l2 != 0 || groupsSpec != "" {
			return nil, fmt.Errorf("-l2/-groups apply to -reg en|ridge|group, not %q", name)
		}
		return nil, nil
	}
	if algo == "cocoa" || algo == "pn" {
		return nil, fmt.Errorf("-reg %s does not apply to -algo %s (l1 only)", name, algo)
	}
	return scenario.BuildReg(scenario.RegSpec{
		Name: name, Lambda: prob.Lambda, L2: l2, Groups: groupsSpec,
	}, prob.X.Rows)
}

// lossPNRun is the flag state the generalized-loss proximal newton
// branch needs: the whole solve path for huber/quantile/logistic.
// runRanks puts a rank function on the run's communicator or world.
type lossPNRun struct {
	prob     *data.Problem
	reg      prox.Operator
	runRanks func(solve func(c dist.Comm) (*solver.Result, error)) (*solver.Result, error)
	loss     scenario.LossSpec
	maxIter  int
	inner    int
	b        float64
	seed     uint64
}

func (r *lossPNRun) solve(ctx context.Context, out io.Writer) (*solver.Result, error) {
	lossFn, err := scenario.BuildLoss(r.loss)
	if err != nil {
		return nil, err
	}
	y := r.prob.Y
	_, logistic := lossFn.(erm.Logistic)
	if logistic {
		y = erm.SignLabels(y)
	}
	eopts := erm.Options{
		Loss: lossFn, Reg: r.reg, Lambda: r.prob.Lambda,
		OuterIter: r.maxIter, InnerIter: r.inner, B: r.b,
		LineSearch: true, Seed: r.seed,
	}
	res, err := r.runRanks(func(c dist.Comm) (*solver.Result, error) {
		local := erm.Partition(r.prob.X, y, c.Size(), c.Rank())
		return erm.DistProxNewtonContext(ctx, c, local, eopts)
	})
	if res != nil && logistic {
		obj := erm.NewObjective(r.prob.X, y, lossFn)
		fmt.Fprintf(out, "training accuracy: %.4f\n", obj.Accuracy(res.W))
	}
	return res, err
}
