package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// tripleLegs are the worlds the triple path is held to.
var tripleLegs = []struct {
	backend string
	procs   int
}{{"chan", 1}, {"chan", 2}, {"chan", 4}, {"tcp", 1}, {"tcp", 2}, {"tcp", 4}}

// tripleShapes are a sparse shape (the column sweep) and a dense one
// (the panel kernel), each with the serving layer's options.
func tripleShapes(t *testing.T) map[string]*data.Problem {
	t.Helper()
	out := map[string]*data.Problem{}
	for _, s := range []struct {
		name string
		m, d int
	}{{"covtype", 600, 24}, {"epsilon", 240, 16}} {
		p, err := data.LoadWith(s.name, s.m, s.d, 5)
		if err != nil {
			t.Fatal(err)
		}
		out[s.name] = p
	}
	return out
}

// tripleOpts are the serving layer's options for p: defaults and
// tolerance 1e-5. A triple solve takes its triple's step, so they set
// no Gamma; a world solve beside it takes the triple's (worldOpts).
func tripleOpts(p *data.Problem) Options {
	o := Defaults()
	o.Lambda = 0.2 * p.Lambda
	o.MaxIter, o.GradMapTol, o.EpochLen = 4000, 1e-5, 20
	return o
}

// worldOpts are o for a world solve at tri's step.
func worldOpts(o Options, tri *Triple) Options {
	o.Gamma = tri.Step()
	return o
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameAnswer reports whether two solves answered alike, bit for bit:
// W, FinalObj, GradMap, Iters and Converged.
func sameAnswer(a, b *Result) bool {
	return a.Iters == b.Iters && a.Converged == b.Converged && sameFloats(a.W, b.W) &&
		sameFloats([]float64{a.FinalObj, a.GradMap}, []float64{b.FinalObj, b.GradMap})
}

// TestTripleMatchesWorldFill: the triple FillTriple fills in-process is,
// bit for bit, the one a p-rank world solve fills before round 0 (read
// off rank 0's engine), at P ∈ {1, 2, 4} on chan and tcp, on the sparse
// and the dense fill kernel; so is its step, and a triple solve answers
// alike from either.
func TestTripleMatchesWorldFill(t *testing.T) {
	for name, p := range tripleShapes(t) {
		o := tripleOpts(p)
		for _, leg := range tripleLegs {
			label := fmt.Sprintf("%s/%s/p%d", name, leg.backend, leg.procs)
			local := FillTriple(p.X, p.Y, leg.procs, nil)
			wo := worldOpts(o, local)
			wo.MaxIter = 4
			_, engines, err := runEngines(context.Background(), t, leg.backend, leg.procs, p, wo, true)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if engines[0].tri == nil {
				t.Fatalf("%s: the world solve did not fill the triple", label)
			}
			world := newTriple(slices.Clone(engines[0].tri.vals), local.g.N, local.m, local.p)
			world.prepare(nil)
			if !sameFloats(local.vals, world.vals) || local.Step() != world.Step() {
				t.Fatalf("%s: the in-process triple differs from the world fill's (step %g, world's %g)", label, local.Step(), world.Step())
			}
			mine, err := SolveTriple(context.Background(), local, perf.Comet(), o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			theirs, err := SolveTriple(context.Background(), world, perf.Comet(), o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !sameAnswer(mine, theirs) {
				t.Fatalf("%s: on the world's triple %d iters, objective %.17g; on the filled one %d, %.17g (or W differs)",
					label, theirs.Iters, theirs.FinalObj, mine.Iters, mine.FinalObj)
			}
		}
	}
}

// TestTripleStepIsSafe: a triple's step never exceeds FISTA's safe step
// 1/λmax(G), with λmax from a 1000-iteration power estimate, and is
// within 0.1 % of it, on covtype, mnist, epsilon and susy shapes at
// P ∈ {1, 2, 4}.
func TestTripleStepIsSafe(t *testing.T) {
	for _, s := range []struct {
		name string
		m, d int
	}{{"covtype", 8000, 54}, {"mnist", 2000, 392}, {"epsilon", 2000, 192}, {"susy", 8000, 18}} {
		p, err := data.LoadWith(s.name, s.m, s.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			tri := FillTriple(p.X, p.Y, procs, nil)
			lam := solvercore.EstimateQuadLipschitz(&tri.g, 1000, nil)
			if r := tri.Step() * lam; !(r <= 1+1e-9 && r >= 1-1e-3) {
				t.Fatalf("%s %d×%d P=%d: step·λmax = %.12f, want ≤ 1 and within 0.1 %% of it", s.name, s.m, s.d, procs, r)
			}
		}
	}
}

// TestTripleCertificateIsTheWorldDataPass: a triple answer certifies
// (GradMap ≤ tol) and publishes the Gram-side gradient-map norm plus the
// triple's rounding bound at W as GradMap, and the triple's loss at W
// plus g(W) as FinalObj. A p-rank world's zero-round data pass at W —
// the world solve warm-started there at Gamma = the triple's step stops
// before round 0 with W unchanged — lies inside the published bounds:
// its ∇f within gradErr of Gw − r, its objective within lossErr of
// FinalObj, its norm within the bound of the Gram norm (so at most
// GradMap). At P ∈ {1, 2, 4} on chan and tcp, for l1, elastic net,
// ridge and group lasso. The answer costs local flops only: no round,
// no word, no message.
func TestTripleCertificateIsTheWorldDataPass(t *testing.T) {
	p := tripleShapes(t)["covtype"]
	d := p.X.Rows
	groups, err := prox.ParseGroups("size:4", d)
	if err != nil {
		t.Fatal(err)
	}
	regs := map[string]prox.Operator{
		"l1":    nil,
		"en":    prox.ElasticNet{Lambda1: 0.2 * p.Lambda, Lambda2: 0.05},
		"ridge": prox.L2Squared{Lambda: 0.05},
		"group": prox.GroupL2{Lambda: 0.2 * p.Lambda, Groups: groups},
	}
	var worstGrad, worstObj, worstNorm float64
	for _, leg := range tripleLegs {
		tri := FillTriple(p.X, p.Y, leg.procs, nil)
		for rname, reg := range regs {
			o := tripleOpts(p)
			o.Reg = reg
			label := fmt.Sprintf("%s/%s/p%d", rname, leg.backend, leg.procs)
			res, err := SolveTriple(context.Background(), tri, perf.Comet(), o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Converged || !(res.GradMap <= o.GradMapTol) || res.Rounds != 0 ||
				res.Cost.Messages != 0 || res.Cost.Words != 0 || res.Cost.Flops == 0 {
				t.Fatalf("%s: converged %t, gradmap %g, %d rounds, cost %+v", label, res.Converged, res.GradMap, res.Rounds, res.Cost)
			}
			g := o.withDefaults().Reg
			grad := make([]float64, d)
			tri.grad(grad, res.W, nil)
			norm := gradMapNorm(make([]float64, d), res.W, grad, tri.Step(), g, nil)
			bound := tri.mapErr(res.W, grad, norm, g, nil)
			if res.GradMap != norm+bound || res.FinalObj != tri.loss(res.W)+g.Value(res.W, nil) {
				t.Fatalf("%s: gradmap %.17g, objective %.17g; Gram norm + bound %.17g, triple objective %.17g",
					label, res.GradMap, res.FinalObj, norm+bound, tri.loss(res.W)+g.Value(res.W, nil))
			}

			wo := worldOpts(o, tri)
			wo.W0 = res.W
			direct, engines, err := runEngines(context.Background(), t, leg.backend, leg.procs, p, wo, true)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ex := engines[0].ex
			if direct.Rounds != 0 || !direct.Converged || !sameFloats(direct.W, res.W) || math.IsNaN(ex.loss) {
				t.Fatalf("%s: world warm-started at the answer: %d rounds, converged %t, data take %t (or W moved)",
					label, direct.Rounds, direct.Converged, !math.IsNaN(ex.loss))
			}
			var dg float64
			for i, v := range ex.grad {
				dg += (v - grad[i]) * (v - grad[i])
			}
			dg = math.Sqrt(dg)
			dObj, dNorm := math.Abs(direct.FinalObj-res.FinalObj), math.Abs(direct.GradMap-norm)
			if gb, lb := tri.gradErr(res.W), tri.lossErr(res.W); !(dg <= gb && dObj <= lb && dNorm <= bound) {
				t.Fatalf("%s: data pass off the triple by ‖Δ∇f‖ %.3g (bound %.3g), |Δobj| %.3g (bound %.3g), |Δnorm| %.3g (bound %.3g)",
					label, dg, gb, dObj, lb, dNorm, bound)
			}
			worstGrad = max(worstGrad, dg/tri.gradErr(res.W))
			worstObj = max(worstObj, dObj/tri.lossErr(res.W))
			worstNorm = max(worstNorm, dNorm/bound)
		}
	}
	t.Logf("worst share of the bound taken by the data pass: ∇f %.2g, objective %.2g, norm %.2g", worstGrad, worstObj, worstNorm)
}

// TestTripleExits pins the exits that do not certify: a budget too
// small to certify returns the refined W unconverged with its triple
// objective (F(W) of the data within 1e-12) and a NaN GradMap; a done
// context returns the iterate so far with the context's error; a solve
// without a positive GradMapTol runs its budget and returns the short
// budget's answer bit for bit, unconverged; so does a solve whose
// regularizer the rounding bound does not know, past the iteration l1
// certifies at.
func TestTripleExits(t *testing.T) {
	p := tripleShapes(t)["covtype"]
	o := tripleOpts(p)
	tri := FillTriple(p.X, p.Y, 2, nil)
	full, err := SolveTriple(context.Background(), tri, perf.Comet(), o)
	if err != nil || !full.Converged || full.Iters < 2*tripleCheckEvery {
		t.Fatalf("reference: %v, %+v", err, full)
	}

	short := o
	short.MaxIter = tripleCheckEvery + 3
	res, err := SolveTriple(context.Background(), tri, perf.Comet(), short)
	if err != nil || res.Converged || !math.IsNaN(res.GradMap) || res.Iters != short.MaxIter || sameFloats(res.W, make([]float64, len(res.W))) {
		t.Fatalf("short budget: err %v, converged %t, gradmap %g, %d iters", err, res.Converged, res.GradMap, res.Iters)
	}
	if want := prox.NewObjective(p.X, p.Y, prox.L1{Lambda: o.Lambda}).F(res.W, nil); math.Abs(res.FinalObj-want) > 1e-12*math.Abs(want) {
		t.Fatalf("short budget objective %.17g, F(W) = %.17g", res.FinalObj, want)
	}
	shortW, shortObj := res.W, res.FinalObj

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = SolveTriple(ctx, tri, perf.Comet(), o)
	if !errors.Is(err, context.Canceled) || res == nil || res.Converged || res.Iters != 0 || math.IsNaN(res.FinalObj) {
		t.Fatalf("cancelled: err %v, result %+v", err, res)
	}

	off := short
	off.GradMapTol = 0
	noStop, err := SolveTriple(context.Background(), tri, perf.Comet(), off)
	if err != nil || noStop.Converged || noStop.Iters != off.MaxIter || !sameFloats(noStop.W, shortW) ||
		math.Float64bits(noStop.FinalObj) != math.Float64bits(shortObj) {
		t.Fatalf("without GradMapTol: err %v, converged %t, %d iters, objective %.17g (short budget %.17g, or W differs)",
			err, noStop.Converged, noStop.Iters, noStop.FinalObj, shortObj)
	}

	unknown := o
	unknown.MaxIter = full.Iters + tripleCheckEvery
	unknown.Reg = unknownOperator{prox.L1{Lambda: o.Lambda}}
	res, err = SolveTriple(context.Background(), tri, perf.Comet(), unknown)
	if err != nil || res.Converged || res.Iters != unknown.MaxIter || !math.IsNaN(res.GradMap) {
		t.Fatalf("unknown operator: err %v, converged %t, %d iters, gradmap %g; l1 certifies after %d", err, res.Converged, res.Iters, res.GradMap, full.Iters)
	}
}

// unknownOperator is l1 under a type the rounding bound does not know.
type unknownOperator struct{ prox.L1 }

// TestTripleRacingFirstSolves: first fills racing on one dataset — a
// server's first fits — each fill the same triple bit for bit, step
// included, and answer alike (the CI serving job runs it under -race).
func TestTripleRacingFirstSolves(t *testing.T) {
	p := tripleShapes(t)["covtype"]
	o := tripleOpts(p)
	lone := FillTriple(p.X, p.Y, 2, nil)
	want, err := SolveTriple(context.Background(), lone, perf.Comet(), o)
	if err != nil {
		t.Fatal(err)
	}
	tris := make([]*Triple, 4)
	got := make([]*Result, len(tris))
	errs := make([]error, len(tris))
	var wg sync.WaitGroup
	for i := range tris {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tris[i] = FillTriple(p.X, p.Y, 2, nil)
			got[i], errs[i] = SolveTriple(context.Background(), tris[i], perf.Comet(), o)
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameFloats(tris[i].vals, lone.vals) || tris[i].Step() != lone.Step() || !sameAnswer(res, want) {
			t.Fatalf("racer %d: step %g, %d iters, objective %.17g; lone fill %g, %d, %.17g (or the triple or W differs)",
				i, tris[i].Step(), res.Iters, res.FinalObj, lone.Step(), want.Iters, want.FinalObj)
		}
	}
	if d := p.X.Rows; lone.Bytes() != 8*int64(mat.PackedLen(d)+d+1) {
		t.Fatalf("a triple of %d features holds %d bytes", d, lone.Bytes())
	}
}
