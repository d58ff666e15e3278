package solver

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// Result.GradMap: the gradient-mapping norm the GradMapTol stop read at
// W, checked from outside, and NaN wherever the solve did not measure
// it there.

// outsideGradMap recomputes ||w - prox_gamma(w - gamma grad f(w))|| /
// gamma from the data alone, one sequential gradient pass.
func outsideGradMap(p *data.Problem, reg prox.Operator, w []float64, gamma float64) float64 {
	obj := prox.NewObjective(p.X, p.Y, reg)
	g := make([]float64, len(w))
	obj.Gradient(g, w, nil)
	step := make([]float64, len(w))
	mat.AddScaled(step, w, -gamma, g, nil)
	obj.G.Apply(step, step, gamma, nil)
	mat.Sub(step, w, step, nil)
	return mat.Nrm2(step, nil) / gamma
}

func worldSolve(t *testing.T, backend string, procs int, p *data.Problem, o Options) *Result {
	t.Helper()
	w, err := dist.NewWorldOn(backend, procs, perf.Comet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDistributed(w, p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGradMapMatchesOutside: when the GradMapTol stop ends a solve, the
// reported norm is the stop's own (≤ GradMapTol) and the data's, within
// 1e-12 relative — on the dense-slot, full-batch and screened paths of
// the golden shape. A warm start at W on the same P then takes the
// zero-round path and hands back W, FinalObj and GradMap bit for bit,
// on chan and over tcp: the verdict the serving layer's certified hits
// stand on.
func TestGradMapMatchesOutside(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(o *Options)
	}{
		{"vr", func(o *Options) { o.K = 2 }},
		{"dense/b1", func(o *Options) { o.B = 1 }},
		{"s2", func(o *Options) { o.K, o.S = 4, 2 }},
		{"activeset", func(o *Options) { o.ActiveSet = true }},
	} {
		o := gramOpts(p)
		o.MaxIter, o.GradMapTol = 4000, 1e-4
		tc.edit(&o)
		res := worldSolve(t, "chan", 4, p, o)
		if !res.Converged || !(res.GradMap <= o.GradMapTol) {
			t.Fatalf("%s: converged=%t GradMap=%g, want the GradMapTol %g stop", tc.name, res.Converged, res.GradMap, o.GradMapTol)
		}
		want := outsideGradMap(p, prox.L1{Lambda: o.Lambda}, res.W, o.Gamma)
		if rel := math.Abs(res.GradMap-want) / want; rel > 1e-12 {
			t.Errorf("%s: GradMap %.17g, outside %.17g (rel %.2g)", tc.name, res.GradMap, want, rel)
		}
		o.W0 = res.W
		for _, backend := range []string{"chan", "tcp"} {
			again := worldSolve(t, backend, 4, p, o)
			if again.Rounds != 0 || again.Iters != 0 || !again.Converged {
				t.Fatalf("%s/%s: warm start at W ran %d rounds, converged=%t", tc.name, backend, again.Rounds, again.Converged)
			}
			for _, pair := range [][2]float64{{again.FinalObj, res.FinalObj}, {again.GradMap, res.GradMap}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("%s/%s: zero-round %.17g vs publishing %.17g", tc.name, backend, pair[0], pair[1])
				}
			}
			for i := range res.W {
				if math.Float64bits(again.W[i]) != math.Float64bits(res.W[i]) {
					t.Fatalf("%s/%s: W[%d] %.17g vs %.17g", tc.name, backend, i, again.W[i], res.W[i])
				}
			}
		}
	}
}

// blindL1 is prox.L1 whose KKT scan never reports a violation: the
// screened solve with the redo protocol switched off.
type blindL1 struct{ prox.L1 }

func (blindL1) Violations(g, w []float64, in func(int) bool) []int { return nil }
func (b blindL1) Restrict([]int) prox.Operator                     { return b }

// TestGradMapNaNWithoutMeasuredStop: no norm is reported unless the
// GradMapTol stop ended the solve on exact gradients — not on a MaxIter
// exit, not without GradMapTol, not under any CompressTier (the
// snapshot gradient crossed the wire quantized), not on a cancelled
// partial, and not when an active-set KKT redo rewound the stop.
func TestGradMapNaNWithoutMeasuredStop(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	nan := func(name string, res *Result) {
		t.Helper()
		if !math.IsNaN(res.GradMap) {
			t.Errorf("%s: GradMap = %g, want NaN", name, res.GradMap)
		}
	}

	o := gramOpts(p)
	o.GradMapTol, o.MaxIter = 1e-12, 30
	if res := worldSolve(t, "chan", 2, p, o); res.Converged {
		t.Fatal("maxiter: the 1e-12 stop fired in 30 updates")
	} else {
		nan("maxiter", res)
	}
	nan("no-gradmaptol", worldSolve(t, "chan", 2, p, gramOpts(p)))
	// A cold start already within tolerance at w = 0 whose budget ends
	// before the first refresh in the loop: the verdict at 0 is no stop,
	// and w has moved off 0.
	o = gramOpts(p)
	o.GradMapTol, o.MaxIter = 1e6, o.EpochLen-1
	if res := worldSolve(t, "chan", 2, p, o); res.Converged || res.Iters != o.MaxIter {
		t.Fatalf("cold latch: converged=%t after %d updates", res.Converged, res.Iters)
	} else {
		nan("cold-latch", res)
	}

	for _, tier := range []string{"f32", "i8", "auto"} {
		o := gramOpts(p)
		o.GradMapTol, o.MaxIter, o.CompressTier = 1e-3, 4000, tier
		res := worldSolve(t, "chan", 2, p, o)
		if !res.Converged {
			t.Fatalf("%s: the GradMapTol stop never fired", tier)
		}
		nan(tier, res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o = gramOpts(p)
	o.GradMapTol, o.MaxIter = 1e-4, 4000
	res, err := SolveDistributedContext(ctx, dist.NewWorld(2, perf.Comet()), p.X, p.Y, o)
	if !errors.Is(err, context.Canceled) || res == nil {
		t.Fatalf("cancelled solve: res=%v err=%v, want a partial result", res != nil, err)
	}
	nan("cancelled", res)

	// redoTriggerProblem's screened coordinate crosses its KKT bound while
	// the GradMapTol stop fires at update 4. With the redo protocol off the
	// solve stops there; with it on, the scan the stop triggers — the first
	// to see the violation — rewinds it, the redo on the expanded set misses
	// the tolerance, and the solve runs out its budget at the same update,
	// without a certificate.
	X, Y, ro := redoTriggerProblem()
	ro.VarianceReduced, ro.ActiveSet = true, true
	ro.Gamma, ro.EpochLen, ro.GradMapTol = 0.2, 2, 0.0084
	selfRun := func(o Options) *Result {
		res, err := RCSFISTA(dist.NewSelfComm(perf.Comet()), Partition(X, Y, 1, 0), o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bo := ro
	bo.Reg = blindL1{prox.L1{Lambda: ro.Lambda}}
	blind := selfRun(bo)
	if !blind.Converged || !(blind.GradMap <= ro.GradMapTol) || countEvents(blind.Trace)["expand"] != 0 {
		t.Fatalf("premise: blind screened solve converged=%t GradMap=%g", blind.Converged, blind.GradMap)
	}
	ro.MaxIter = blind.Iters
	redone := selfRun(ro)
	var expands []int
	for _, ev := range redone.Trace.Events {
		if ev.Kind == "expand" {
			expands = append(expands, ev.Round)
		}
	}
	if len(expands) != 1 || expands[0] != blind.Rounds {
		t.Fatalf("premise: expansions at rounds %v, want one at the stop's round %d", expands, blind.Rounds)
	}
	if redone.Converged || redone.Iters != blind.Iters {
		t.Fatalf("redo: converged=%t after %d updates, want the stop rewound and the %d-update budget spent",
			redone.Converged, redone.Iters, blind.Iters)
	}
	nan("rewound", redone)
}
