package solver

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// newResident returns a handle with room for every test solve.
func newResident() *Resident { return NewResident(NewResidentBudget(1 << 40)) }

// residentSolve solves o on a two-rank chan world on the handle r.
func residentSolve(p *data.Problem, o Options, r *Resident) (*Result, error) {
	return SolveDistributedResident(context.Background(), dist.NewWorld(2, perf.Comet()), p.X, p.Y, o, r)
}

// requireResidentAnswer fails unless a solve on a resident handle
// equals the handle-less one bit for bit in everything but work: W,
// FinalObj, Iters, Rounds, Converged, GradMap and every trace point's
// objective.
func requireResidentAnswer(t *testing.T, label string, got, want *Result) {
	t.Helper()
	requireBitIdentical(t, label, got, want)
	if got.Converged != want.Converged || math.Float64bits(got.GradMap) != math.Float64bits(want.GradMap) {
		t.Fatalf("%s: converged/GradMap %t %g vs %t %g", label, got.Converged, got.GradMap, want.Converged, want.GradMap)
	}
}

// TestResidentRacingFirstSolves: solves racing on one fresh handle —
// a server's first fits on a dataset — each fill the triple or read the
// one kept, exactly one is kept and charged to the budget, and every
// result equals the handle-less solve bit for bit. A handle whose
// budget cannot hold the triple fills it every time, keeps nothing,
// and answers alike.
func TestResidentRacingFirstSolves(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000
	want, err := residentSolve(p, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := p.X.Rows
	triple := 8 * int64(mat.PackedLen(d)+d+1)

	budget := NewResidentBudget(1 << 40)
	r := NewResident(budget)
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = residentSolve(p, o, r)
		}(i)
	}
	wg.Wait()
	fills := 0
	for i, res := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireResidentAnswer(t, fmt.Sprintf("racer %d", i), res, want)
		if res.GramFilled {
			fills++
		}
	}
	if gram := r.Bytes(); fills < 1 || gram != triple || budget.Used() != triple {
		t.Fatalf("%d fills, %d triple bytes, %d budget bytes; want one %d-byte triple", fills, gram, budget.Used(), triple)
	}

	starved := NewResident(NewResidentBudget(triple - 1))
	for i := 0; i < 2; i++ {
		res, err := residentSolve(p, o, starved)
		if err != nil {
			t.Fatal(err)
		}
		requireResidentAnswer(t, fmt.Sprintf("starved %d", i), res, want)
		if gram := starved.Bytes(); !res.GramFilled || gram != 0 {
			t.Fatalf("starved %d: filled %t, kept %d bytes", i, res.GramFilled, gram)
		}
	}
}

// TestResidentIdentity: a Resident is stamped with the (d, m, P) of the
// first solve that reads it, and a solve of any other errors before a
// world runs. Everything else a solve varies — the seed, b, k, S, the
// epoch, λ, the regularizer, the tolerances — reads the kept triple
// without filling and answers as the handle-less solve does.
func TestResidentIdentity(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.MaxIter = 2, 20
	r := newResident()
	solve := func(procs int, prob *data.Problem, o Options) (*Result, error) {
		return SolveDistributedResident(context.Background(), dist.NewWorld(procs, perf.Comet()), prob.X, prob.Y, o, r)
	}
	if res, err := solve(2, p, o); err != nil || !res.GramFilled {
		t.Fatalf("first solve: err %v, result %+v", err, res)
	}
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
		if res, err := solve(c.procs, c.prob, o); err == nil || res != nil {
			t.Fatalf("%s: a mismatching solve ran: res %v err %v", c.name, res, err)
		}
	}
	for name, edit := range map[string]func(o *Options){
		"seed": func(o *Options) { o.Seed++ },
		"k":    func(o *Options) { o.K = 1 },
		"b":    func(o *Options) { o.B = 0.5 },
		"rest": func(o *Options) {
			o.Lambda, o.S, o.EpochLen, o.GradMapTol = 2*o.Lambda, 3, 12, 1e-3
			o.Reg = prox.ElasticNet{Lambda1: o.Lambda, Lambda2: 0.1}
		},
	} {
		oc := o
		edit(&oc)
		want, err := residentSolve(p, oc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solve(2, p, oc)
		if err != nil || got.GramFilled {
			t.Fatalf("%s: err %v, filled %t; want the kept triple read", name, err, got != nil && got.GramFilled)
		}
		requireResidentAnswer(t, name, got, want)
	}
}

// TestResidentIneligible: a screened and a compressed (f32, i8, auto on
// two ranks) solve hold no triple, so they neither read nor write a
// resident handle — not its triple, not even its stamp — and equal
// their handle-less solves in everything, Cost included.
func TestResidentIneligible(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := gramOpts(p)
	base.K, base.MaxIter, base.GradMapTol = 2, 40, 0
	kept := newResident()
	if _, err := residentSolve(p, base, kept); err != nil {
		t.Fatal(err)
	}
	held := kept.Bytes()
	for name, edit := range map[string]func(o *Options){
		"activeset": func(o *Options) { o.ActiveSet = true },
		"f32":       func(o *Options) { o.CompressTier = "f32" },
		"i8":        func(o *Options) { o.CompressTier = "i8" },
		"auto":      func(o *Options) { o.CompressTier = "auto" },
	} {
		o := base
		edit(&o)
		want, err := SolveDistributed(dist.NewWorld(2, perf.Comet()), p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newResident()
		for _, r := range []*Resident{kept, fresh} {
			got, err := residentSolve(p, o, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameResult(t, name, got, want)
			if got.GramFilled != want.GramFilled {
				t.Fatalf("%s: filled the triple %t (handle-less %t)", name, got.GramFilled, want.GramFilled)
			}
		}
		if g := kept.Bytes(); g != held {
			t.Fatalf("%s: the kept handle moved: %d triple bytes, held %d", name, g, held)
		}
		if g := fresh.Bytes(); g != 0 || fresh.id != (residentID{}) {
			t.Fatalf("%s: the fresh handle moved: %d triple bytes, stamp %+v", name, g, fresh.id)
		}
	}
}

// TestResidentShared: a fault-injected solve and an auto-tier solve on
// one rank hold the triple, so they share a resident handle like a
// plain solve. On a kept handle they fill nothing and answer the
// handle-less solve bit for bit (faults included); on a fresh handle
// they fill the triple, keep it and stamp the handle.
func TestResidentShared(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := gramOpts(p)
	base.K, base.MaxIter, base.GradMapTol = 2, 40, 0
	for name, tc := range map[string]struct {
		procs int
		edit  func(o *Options)
	}{
		"faults": {2, func(o *Options) {
			o.Faults = &dist.FaultPlan{Seed: 3, Schedule: []dist.ScheduledFault{{Round: 2, Kind: dist.FaultDrop}}}
		}},
		"auto/p1": {1, func(o *Options) { o.CompressTier = "auto" }},
	} {
		solve := func(o Options, r *Resident) (*Result, error) {
			return SolveDistributedResident(context.Background(), dist.NewWorld(tc.procs, perf.Comet()), p.X, p.Y, o, r)
		}
		o := base
		tc.edit(&o)
		want, err := solve(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := newResident()
		if _, err := solve(base, kept); err != nil {
			t.Fatal(err)
		}
		got, err := solve(o, kept)
		if err != nil || got.GramFilled {
			t.Fatalf("%s: err %v, filled %t; want the kept triple read", name, err, got != nil && got.GramFilled)
		}
		requireResidentAnswer(t, name+"/kept", got, want)
		if got.Faults != want.Faults {
			t.Fatalf("%s: faults %+v, handle-less %+v", name, got.Faults, want.Faults)
		}
		fresh := newResident()
		got, err = solve(o, fresh)
		if err != nil || !got.GramFilled {
			t.Fatalf("%s: err %v, filled %t; want the fresh handle filled", name, err, got != nil && got.GramFilled)
		}
		requireResidentAnswer(t, name+"/fresh", got, want)
		if id := (residentID{d: p.X.Rows, m: p.X.Cols, p: tc.procs}); fresh.Bytes() == 0 || fresh.id != id {
			t.Fatalf("%s: fresh handle holds %d bytes, stamp %+v, want %+v", name, fresh.Bytes(), fresh.id, id)
		}
	}
}
