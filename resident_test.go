package rcsfista_test

import (
	"context"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// residentBand is the relative band a served solve — handed a resident
// handle, so its triple is read from round 0 — keeps to the CLI solve,
// which fills it only once stage B has sampled m columns: W (in units
// of ‖W‖∞) and FinalObj. The two differ only in interior Gram-sourced
// objectives and snapshots, which agree with the data passes at the
// rounding level, and every stop is a data-pass decision in both.
const residentBand = 1e-12

// TestResidentMatchesCLI holds a handle solve against the CLI solve on
// every golden least-squares shape a handle applies to (no faults, no
// screening, no wire tier): W and FinalObj within residentBand, the
// same Rounds, Iters and stop.
func TestResidentMatchesCLI(t *testing.T) {
	e := goldenSetup(t)
	groups, err := prox.ParseGroups("size:4", e.prob.X.Rows)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		name string
		p    int
		opts func() solver.Options
	}
	var shapes []shape
	for _, p := range []int{1, 4, 8} {
		shapes = append(shapes, shape{"rcsfista", p, e.opts}, shape{"vr", p, e.vrOpts})
	}
	shapes = append(shapes,
		shape{"vr/gradmap", 4, func() solver.Options {
			o := e.vrOpts()
			o.GradMapTol, o.MaxIter = 1e-4, 120
			return o
		}},
		shape{"tol", 4, func() solver.Options {
			o := e.opts()
			o.Tol, o.FStar, o.MaxIter = 0.3, e.fstar, 120
			return o
		}},
		shape{"w0", 4, func() solver.Options { o := e.opts(); o.W0 = e.w0; return o }},
		shape{"en", 4, func() solver.Options {
			o := e.opts()
			o.Reg = prox.ElasticNet{Lambda1: e.prob.Lambda, Lambda2: 0.01}
			return o
		}},
		shape{"ridge", 4, func() solver.Options { o := e.opts(); o.Reg = prox.Ridge{Lambda: 0.05}; return o }},
		shape{"group", 1, func() solver.Options {
			o := e.opts()
			o.Reg = prox.GroupL2{Lambda: e.prob.Lambda, Groups: groups}
			return o
		}},
	)
	var worstW, worstF float64
	for _, s := range shapes {
		cli, err := solver.SolveDistributed(newGoldenWorld(s.p), e.prob.X, e.prob.Y, s.opts())
		if err != nil {
			t.Fatal(err)
		}
		served, err := solver.SolveDistributedStream(context.Background(), newGoldenWorld(s.p), e.prob.X, e.prob.Y, s.opts(), &solver.Resident{})
		if err != nil {
			t.Fatal(err)
		}
		if !served.GramFilled {
			t.Fatalf("%s/p%d: the handle solve did not fill its triple", s.name, s.p)
		}
		var dw, wmax float64
		for i, w := range cli.W {
			dw = math.Max(dw, math.Abs(served.W[i]-w))
			wmax = math.Max(wmax, math.Abs(w))
		}
		relW, relF := dw/wmax, math.Abs(served.FinalObj-cli.FinalObj)/math.Abs(cli.FinalObj)
		worstW, worstF = math.Max(worstW, relW), math.Max(worstF, relF)
		if !(relW <= residentBand) || !(relF <= residentBand) || served.Rounds != cli.Rounds ||
			served.Iters != cli.Iters || served.Converged != cli.Converged {
			t.Errorf("%s/p%d: served vs CLI: |ΔW|/‖W‖∞ = %.3g, |ΔF|/|F| = %.3g, rounds %d vs %d, iters %d vs %d, converged %t vs %t",
				s.name, s.p, relW, relF, served.Rounds, cli.Rounds, served.Iters, cli.Iters, served.Converged, cli.Converged)
		}
	}
	t.Logf("worst |ΔW|/‖W‖∞ = %.2g, worst |ΔF|/|F| = %.2g (band %g)", worstW, worstF, residentBand)
}
