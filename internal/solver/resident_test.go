package solver

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// newResident returns a handle with room for every test solve.
func newResident() *Resident { return NewResident(NewResidentBudget(1 << 40)) }

// residentSolve answers o on two ranks from the triple r holds or
// fills.
func residentSolve(p *data.Problem, o Options, r *Resident) (*Result, error) {
	return SolveTriple(context.Background(), p.X, p.Y, 2, perf.Comet(), o, r)
}

// requireResidentAnswer fails unless a triple solve on a resident
// handle equals the handle-less one bit for bit in everything but work:
// W, FinalObj, Iters, Converged and GradMap.
func requireResidentAnswer(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iters != want.Iters || got.Converged != want.Converged || !sameFloats(got.W, want.W) ||
		math.Float64bits(got.FinalObj) != math.Float64bits(want.FinalObj) ||
		math.Float64bits(got.GradMap) != math.Float64bits(want.GradMap) {
		t.Fatalf("%s: %d iters, objective %.17g, gradmap %g, converged %t; handle-less %d, %.17g, %g, %t (or W differs)",
			label, got.Iters, got.FinalObj, got.GradMap, got.Converged, want.Iters, want.FinalObj, want.GradMap, want.Converged)
	}
}

// TestResidentRacingFirstSolves: triple solves racing on one fresh
// handle whose budget cannot hold the triple each fill it, none keeps
// it, nothing is charged to the budget, and every answer equals the
// handle-less solve bit for bit. (TestTripleRacingFirstSolves races on
// a handle with room.)
func TestResidentRacingFirstSolves(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	want, err := residentSolve(p, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := p.X.Rows
	budget := NewResidentBudget(8*int64(mat.PackedLen(d)+d+1) - 1)
	starved := NewResident(budget)
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = residentSolve(p, o, starved)
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireResidentAnswer(t, fmt.Sprintf("racer %d", i), res, want)
		if !res.GramFilled {
			t.Fatalf("racer %d read a triple the budget has no room for", i)
		}
	}
	if gram := starved.Bytes(); gram != 0 || budget.Used() != 0 {
		t.Fatalf("starved handle keeps %d bytes, budget holds %d", gram, budget.Used())
	}
}

// TestResidentIdentity: a Resident is stamped with the (d, m, P) of the
// first solve that reads it, and a solve of any other errors before it
// runs, leaving the kept triple as it was.
func TestResidentIdentity(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	r := newResident()
	solve := func(procs int, prob *data.Problem) (*Result, error) {
		return SolveTriple(context.Background(), prob.X, prob.Y, procs, perf.Comet(), o, r)
	}
	if res, err := solve(2, p); err != nil || !res.GramFilled {
		t.Fatalf("first solve: err %v, result %+v", err, res)
	}
	held := r.Bytes()
	otherD, err := data.LoadWith("covtype", 240, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	otherM, err := data.LoadWith("covtype", 200, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		procs int
		prob  *data.Problem
	}{{"procs", 4, p}, {"d", 2, otherD}, {"m", 2, otherM}} {
		if res, err := solve(c.procs, c.prob); err == nil || res != nil || r.Bytes() != held {
			t.Fatalf("%s: a mismatching solve ran: res %v err %v, %d bytes kept (held %d)", c.name, res, err, r.Bytes(), held)
		}
	}
}

// TestResidentShared: solves that share one Resident read its kept
// triple whatever else they vary — λ, the regularizer, the tolerance,
// the budget, the start — without filling, and answer as the
// handle-less solve does.
func TestResidentShared(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	r := newResident()
	if res, err := residentSolve(p, o, r); err != nil || !res.GramFilled {
		t.Fatalf("first solve: err %v, result %+v", err, res)
	}
	for name, edit := range map[string]func(o *Options){
		"lambda": func(o *Options) { o.Lambda *= 2 },
		"reg":    func(o *Options) { o.Reg = prox.ElasticNet{Lambda1: o.Lambda, Lambda2: 0.1} },
		"tol":    func(o *Options) { o.GradMapTol = 1e-3 },
		"budget": func(o *Options) { o.MaxIter = 15 },
		"w0":     func(o *Options) { o.W0 = make([]float64, p.X.Rows); o.W0[0] = 1 },
	} {
		oc := o
		edit(&oc)
		want, err := residentSolve(p, oc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := residentSolve(p, oc, r)
		if err != nil || got.GramFilled {
			t.Fatalf("%s: err %v, filled %t; want the kept triple read", name, err, got != nil && got.GramFilled)
		}
		requireResidentAnswer(t, name, got, want)
	}
}
