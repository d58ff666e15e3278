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
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
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

// tripleOpts are the serving layer's options for p: defaults, the
// b = 0.1 sampled step, tolerance 1e-5.
func tripleOpts(p *data.Problem) Options {
	o := Defaults()
	o.Lambda = 0.2 * p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, o.B, 8, 777))
	o.MaxIter, o.GradMapTol, o.EpochLen = 4000, 1e-5, 20
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

// worldTriple reads the triple a world solve's engine holds: its packed
// G, then r, then c, as the fill's shared allreduce summed them.
func worldTriple(e *engine) []float64 {
	return append(append(slices.Clone(e.gram.h.Data), e.gram.r...), e.gram.c)
}

// TestTripleMatchesWorldFill: the triple SolveTriple fills in-process
// and keeps is, bit for bit, the one a p-rank world solve fills before
// round 0 (read off rank 0's engine), at P ∈ {1, 2, 4} on chan and tcp,
// on the sparse and the dense fill kernel. A triple solve then answers
// alike, bit for bit and without filling, from the kept triple and from
// a holder that keeps the world's.
func TestTripleMatchesWorldFill(t *testing.T) {
	for name, p := range tripleShapes(t) {
		o := tripleOpts(p)
		for _, leg := range tripleLegs {
			label := fmt.Sprintf("%s/%s/p%d", name, leg.backend, leg.procs)
			wo := o
			wo.MaxIter = 4
			_, engines, err := runEngines(context.Background(), t, leg.backend, leg.procs, p, wo, true)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if engines[0].gram.h == nil {
				t.Fatalf("%s: the world solve did not fill the triple", label)
			}
			world := NewResident(NewResidentBudget(1 << 40))
			world.keep(worldTriple(engines[0]))
			local := NewResident(NewResidentBudget(1 << 40))
			filled, err := SolveTriple(context.Background(), p.X, p.Y, leg.procs, perf.Comet(), o, local)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !filled.GramFilled || !sameFloats(local.tri, world.tri) {
				t.Fatalf("%s: filled %t; the in-process triple differs from the world fill's", label, filled.GramFilled)
			}
			for _, r := range []*Resident{local, world} {
				again, err := SolveTriple(context.Background(), p.X, p.Y, leg.procs, perf.Comet(), o, r)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if again.GramFilled || again.Iters != filled.Iters || !sameFloats(again.W, filled.W) ||
					!sameFloats([]float64{again.FinalObj, again.GradMap}, []float64{filled.FinalObj, filled.GradMap}) {
					t.Fatalf("%s: kept-triple solve filled %t, %d iters, objective %.17g; filling solve %d iters, %.17g (or W differs)",
						label, again.GramFilled, again.Iters, again.FinalObj, filled.Iters, filled.FinalObj)
				}
			}
		}
	}
}

// TestTripleCertificateIsTheWorldDataPass: a triple answer certifies
// (GradMap ≤ tol) with the FinalObj and GradMap bits a p-rank world's
// data pass takes at its W — the world solve warm-started there stops
// before round 0 and hands back W, FinalObj and GradMap unchanged — at
// P ∈ {1, 2, 4} on chan and tcp, for l1, elastic net, ridge and group
// lasso. The answer costs local flops only: no round, no word, no
// message.
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
	for rname, reg := range regs {
		o := tripleOpts(p)
		o.Reg = reg
		for _, leg := range tripleLegs {
			label := fmt.Sprintf("%s/%s/p%d", rname, leg.backend, leg.procs)
			res, err := SolveTriple(context.Background(), p.X, p.Y, leg.procs, perf.Comet(), o, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Converged || !(res.GradMap <= o.GradMapTol) || res.Rounds != 0 ||
				res.Cost.Messages != 0 || res.Cost.Words != 0 || res.Cost.Flops == 0 {
				t.Fatalf("%s: converged %t, gradmap %g, %d rounds, cost %+v", label, res.Converged, res.GradMap, res.Rounds, res.Cost)
			}
			w, err := dist.NewWorldOn(leg.backend, leg.procs, perf.Comet())
			if err != nil {
				t.Fatal(err)
			}
			wo := o
			wo.W0 = res.W
			direct, err := SolveDistributedContext(context.Background(), w, p.X, p.Y, wo)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if direct.Rounds != 0 || !direct.Converged || !sameFloats(direct.W, res.W) ||
				!sameFloats([]float64{direct.FinalObj, direct.GradMap}, []float64{res.FinalObj, res.GradMap}) {
				t.Fatalf("%s: world warm-started at the answer: %d rounds, objective %.17g, gradmap %.17g; triple %.17g, %.17g",
					label, direct.Rounds, direct.FinalObj, direct.GradMap, res.FinalObj, res.GradMap)
			}
		}
	}
}

// TestTripleExits pins the exits that do not certify and the refusals:
// a budget too small to certify returns the refined W unconverged with
// its data-pass objective and a NaN GradMap; a done context returns the
// iterate so far with the context's error; a solve without a positive
// GradMapTol runs its budget and returns the short budget's answer bit
// for bit, unconverged; a solve on a holder stamped for another world
// size errors.
func TestTripleExits(t *testing.T) {
	p := tripleShapes(t)["covtype"]
	o := tripleOpts(p)
	full, err := SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), o, nil)
	if err != nil || !full.Converged || full.Iters < 2*tripleCheckEvery {
		t.Fatalf("reference: %v, %+v", err, full)
	}

	short := o
	short.MaxIter = tripleCheckEvery + 3
	res, err := SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), short, nil)
	if err != nil || res.Converged || !math.IsNaN(res.GradMap) || res.Iters != short.MaxIter || sameFloats(res.W, make([]float64, len(res.W))) {
		t.Fatalf("short budget: err %v, converged %t, gradmap %g, %d iters", err, res.Converged, res.GradMap, res.Iters)
	}
	if want := prox.NewObjective(p.X, p.Y, prox.L1{Lambda: o.Lambda}).F(res.W, nil); math.Abs(res.FinalObj-want) > 1e-12*math.Abs(want) {
		t.Fatalf("short budget objective %.17g, F(W) = %.17g", res.FinalObj, want)
	}
	shortW, shortObj := res.W, res.FinalObj

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = SolveTriple(ctx, p.X, p.Y, 2, perf.Comet(), o, nil)
	if !errors.Is(err, context.Canceled) || res == nil || res.Converged || res.Iters != 0 || math.IsNaN(res.FinalObj) {
		t.Fatalf("cancelled: err %v, result %+v", err, res)
	}

	off := short
	off.GradMapTol = 0
	noStop, err := SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), off, nil)
	if err != nil || noStop.Converged || noStop.Iters != off.MaxIter || !sameFloats(noStop.W, shortW) ||
		math.Float64bits(noStop.FinalObj) != math.Float64bits(shortObj) {
		t.Fatalf("without GradMapTol: err %v, converged %t, %d iters, objective %.17g (short budget %.17g, or W differs)",
			err, noStop.Converged, noStop.Iters, noStop.FinalObj, shortObj)
	}
	r := NewResident(NewResidentBudget(1 << 40))
	if _, err := SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), o, r); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveTriple(context.Background(), p.X, p.Y, 1, perf.Comet(), o, r); err == nil {
		t.Fatal("a holder stamped at P = 2 served a P = 1 triple solve")
	}
}

// TestTripleRacingFirstSolves: triple solves racing on one fresh holder
// — a server's first fits on a dataset — each fill or read the triple,
// exactly one triple is kept and charged to the budget, and every
// answer is the same bits (the CI serving job runs it under -race).
func TestTripleRacingFirstSolves(t *testing.T) {
	p := tripleShapes(t)["covtype"]
	o := tripleOpts(p)
	want, err := SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := NewResidentBudget(1 << 40)
	r := NewResident(budget)
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), o, r)
		}(i)
	}
	wg.Wait()
	fills := 0
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Iters != want.Iters || !sameFloats(res.W, want.W) || !sameFloats([]float64{res.FinalObj, res.GradMap}, []float64{want.FinalObj, want.GradMap}) {
			t.Fatalf("racer %d: %d iters, objective %.17g; lone solve %d, %.17g (or W differs)", i, res.Iters, res.FinalObj, want.Iters, want.FinalObj)
		}
		if res.GramFilled {
			fills++
		}
	}
	gram := r.Bytes()
	if d := p.X.Rows; fills < 1 || gram != 8*int64(mat.PackedLen(d)+d+1) || budget.Used() != gram {
		t.Fatalf("%d fills, %d triple bytes kept, %d budget bytes", fills, gram, budget.Used())
	}
}
