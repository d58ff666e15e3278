package solver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// residentSolve answers o from tri.
func residentSolve(o Options, tri *Triple) (*Result, error) {
	return SolveTriple(context.Background(), tri, perf.Comet(), o)
}

// requireResidentAnswer fails unless a triple solve on a kept triple
// equals the one on a fresh fill bit for bit: W, FinalObj, Iters,
// Converged and GradMap.
func requireResidentAnswer(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !sameAnswer(got, want) {
		t.Fatalf("%s: %d iters, objective %.17g, gradmap %g, converged %t; fresh fill %d, %.17g, %g, %t (or W differs)",
			label, got.Iters, got.FinalObj, got.GradMap, got.Converged, want.Iters, want.FinalObj, want.GradMap, want.Converged)
	}
}

// TestResidentRacingFirstSolves: triple solves racing on one kept
// triple read it at once, and every answer equals the lone solve bit
// for bit (the CI serving job runs it under -race).
func TestResidentRacingFirstSolves(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	tri := FillTriple(p.X, p.Y, 2, nil)
	want, err := residentSolve(o, FillTriple(p.X, p.Y, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = residentSolve(o, tri)
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireResidentAnswer(t, fmt.Sprintf("racer %d", i), res, want)
	}
}

// TestResidentIdentity: a triple answers only solves it can take — one
// whose W0 has another feature count, or whose Lambda or MaxIter is out
// of range, errors before it runs — and is the same bits after.
func TestResidentIdentity(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	tri := FillTriple(p.X, p.Y, 2, nil)
	kept := slices.Clone(tri.vals)
	if _, err := residentSolve(o, tri); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(o *Options){
		"w0 short": func(o *Options) { o.W0 = make([]float64, p.X.Rows-1) },
		"w0 long":  func(o *Options) { o.W0 = make([]float64, p.X.Rows+1) },
		"lambda":   func(o *Options) { o.Lambda = -1 },
		"maxiter":  func(o *Options) { o.MaxIter = -1 },
	} {
		oc := o
		edit(&oc)
		if res, err := residentSolve(oc, tri); err == nil || res != nil || !sameFloats(tri.vals, kept) {
			t.Fatalf("%s: a solve with bad options ran: res %v, or changed the triple", name, res)
		}
	}
}

// TestResidentShared: solves that share one triple in turn, whatever
// else they vary — λ, the regularizer, the tolerance, the budget, the
// start — answer as on a fresh fill of their own, and leave the triple
// the same bits.
func TestResidentShared(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := tripleOpts(p)
	tri := FillTriple(p.X, p.Y, 2, nil)
	kept := slices.Clone(tri.vals)
	if _, err := residentSolve(o, tri); err != nil {
		t.Fatal(err)
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
		want, err := residentSolve(oc, FillTriple(p.X, p.Y, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		got, err := residentSolve(oc, tri)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireResidentAnswer(t, name, got, want)
	}
	if !sameFloats(tri.vals, kept) {
		t.Fatal("a solve wrote the shared triple")
	}
}
