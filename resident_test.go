package rcsfista_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solver"
)

// TestResidentMatchesCLI holds a served solve to the CLI solve bit for
// bit on every golden least-squares shape a handle applies to (no
// faults, no screening, no wire tier), over the transport the golden
// suite runs on: SolveDistributedResident handed no handle, a fresh
// one, the same one again — its triple kept — and one whose budget
// holds nothing equals SolveDistributedContext in W, FinalObj, GradMap,
// every trace objective, Rounds, Iters and the stop. Only the work a
// handle spares may differ: a solve that fills the triple bills what
// the CLI solve bills, and one that reads the kept triple bills no
// fill — under variance reduction, which bills it, fewer flops and,
// on P > 1, fewer words and messages; otherwise the same Cost.
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
		shape{"sfista", 4, func() solver.Options { o := e.vrOpts(); o.K, o.S = 1, 1; return o }},
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
	for _, s := range shapes {
		cli, err := solver.SolveDistributedContext(context.Background(), newGoldenWorld(s.p), e.prob.X, e.prob.Y, s.opts())
		if err != nil {
			t.Fatal(err)
		}
		kept := solver.NewResident(solver.NewResidentBudget(1 << 40))
		for _, h := range []struct {
			state  string
			r      *solver.Resident
			filled bool
		}{
			{"nil", nil, true},
			{"fresh", kept, true},
			{"kept", kept, false},
			{"starved", solver.NewResident(solver.NewResidentBudget(0)), true},
		} {
			name := fmt.Sprintf("%s/p%d/%s", s.name, s.p, h.state)
			served, err := solver.SolveDistributedResident(context.Background(), newGoldenWorld(s.p), e.prob.X, e.prob.Y, s.opts(), h.r)
			if err != nil {
				t.Fatal(err)
			}
			if served.GramFilled != h.filled {
				t.Fatalf("%s: filled the triple %t, want %t", name, served.GramFilled, h.filled)
			}
			c, want := served.Cost, cli.Cost
			billed := h.filled || !s.opts().VarianceReduced
			spared := c.Flops < want.Flops && c.Words <= want.Words && c.Messages <= want.Messages &&
				(s.p == 1 || c.Words < want.Words && c.Messages < want.Messages)
			if billed && c != want || !billed && !spared {
				t.Fatalf("%s: Cost %+v, CLI %+v", name, c, want)
			}
			requireServedIsCLI(t, name, served, cli)
		}
	}
}

// requireServedIsCLI fails unless got equals want bit for bit in
// everything a resident handle must not move.
func requireServedIsCLI(t *testing.T, name string, got, want *solver.Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Rounds != want.Rounds || got.Iters != want.Iters || got.Converged != want.Converged ||
		!same(got.FinalObj, want.FinalObj) || !same(got.GradMap, want.GradMap) {
		t.Fatalf("%s: rounds %d iters %d converged %t F %.17g GradMap %g; CLI %d %d %t %.17g %g", name,
			got.Rounds, got.Iters, got.Converged, got.FinalObj, got.GradMap,
			want.Rounds, want.Iters, want.Converged, want.FinalObj, want.GradMap)
	}
	for i := range want.W {
		if !same(got.W[i], want.W[i]) {
			t.Fatalf("%s: W[%d] %.17g, CLI %.17g", name, i, got.W[i], want.W[i])
		}
	}
	a, b := got.Trace.Points, want.Trace.Points
	if len(a) != len(b) {
		t.Fatalf("%s: %d trace points, CLI %d", name, len(a), len(b))
	}
	for i := range b {
		if a[i].Iter != b[i].Iter || !same(a[i].Obj, b[i].Obj) {
			t.Fatalf("%s: trace point %d at update %d, F %.17g; CLI at %d, %.17g", name, i, a[i].Iter, a[i].Obj, b[i].Iter, b[i].Obj)
		}
	}
}
