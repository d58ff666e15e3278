package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// The resident Gram objective (rcsfista_eval.go): its value against the
// data pass it replaces, when it engages, and that engaging it moves
// nothing but interior trace objectives.

// gramShape is one problem shape the resident objective must be exact
// on: the golden fixtures' instance and the four ls_* benchmark
// workloads.
type gramShape struct {
	name    string
	dataset string
	m, d    int
	seed    uint64
	big     bool // skipped under -race, where a fill of this size takes minutes
}

var gramShapes = []gramShape{
	{"golden", "covtype", 240, 24, 7, false},
	{"ls_fill_chan", "epsilon", 4000, 192, 4, true},
	{"ls_bw_tcp", "mnist", 8000, 392, 4, true},
	{"ls_lat_tcp", "covtype", 24000, 54, 1, false},
	{"ls_screen_tcp", "mnist", 8000, 784, 1, true},
}

// gramOpts is an f64 dense-slot configuration that evaluates after
// every update, so the resident Gram engages early.
func gramOpts(p *data.Problem) Options {
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.25, 8, 99))
	o.B = 0.25
	o.EpochLen = 8
	o.MaxIter = 60
	o.EvalEvery = 1
	o.Seed = 123
	return o
}

// engineWorld runs fn on a fresh engine per rank of a procs-rank world
// on backend and returns the engines by rank.
func engineWorld(t *testing.T, backend string, procs int, p *data.Problem, o Options,
	wrap func(dist.Comm) dist.Comm, fn func(e *engine) (*Result, error)) (*Result, []*engine, error) {
	t.Helper()
	w, err := dist.NewWorldOn(backend, procs, perf.Comet())
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*engine, procs)
	res, err := solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
		local := Partition(p.X, p.Y, c.Size(), c.Rank())
		if wrap != nil {
			c = wrap(c)
		}
		e, err := newEngine(c, local, o)
		if err != nil {
			return nil, err
		}
		engines[c.Rank()] = e
		return fn(e)
	})
	return res, engines, err
}

// runEngines is engineWorld running the production solve.
func runEngines(ctx context.Context, t *testing.T, backend string, procs int, p *data.Problem, o Options) (*Result, []*engine, error) {
	t.Helper()
	return engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
		return e.run(ctx, e, e)
	})
}

// TestGramObjectiveMatchesDataPass holds the Gram objective to the data
// pass: |F_gram − F_data| ≤ 1e-12·(c + |F|) at the origin, near the
// optimum, and at a dense perturbation of it, on every shape, at
// P ∈ {1, 2, 4} over both transports — and every rank computes the
// same F from its copy of the triple.
func TestGramObjectiveMatchesDataPass(t *testing.T) {
	for _, s := range gramShapes {
		if s.big && raceEnabled {
			continue
		}
		p, err := data.LoadWith(s.dataset, s.m, s.d, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		wRef, _ := Reference(p.X, p.Y, p.Lambda, 200)
		noisy := mat.Clone(wRef)
		r := rng.New(s.seed)
		for i := range noisy {
			noisy[i] += 0.1 * (r.Float64() - 0.5)
		}
		points := [][]float64{make([]float64, p.X.Rows), wRef, noisy}
		worst := 0.0
		for _, backend := range []string{"chan", "tcp"} {
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/p%d", s.name, backend, procs)
				gram := make([][]float64, procs)
				dataF := make([]float64, len(points))
				var c float64
				_, _, err := engineWorld(t, backend, procs, p, gramOpts(p), nil, func(e *engine) (*Result, error) {
					e.fillGram()
					vals := make([]float64, len(points))
					for i, w := range points {
						copy(e.wCurr, w)
						vals[i] = e.evaluate(false)
						if f := e.evaluate(true); e.c.Rank() == 0 {
							dataF[i], c = f, e.gram.c
						}
					}
					gram[e.c.Rank()] = vals
					if e.gram.evals != len(points) {
						return nil, fmt.Errorf("rank %d took %d data passes, want %d", e.c.Rank(), e.gram.evals, len(points))
					}
					return e.finish(), nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, fd := range dataF {
					fg := gram[0][i]
					rel := math.Abs(fg-fd) / (c + math.Abs(fd))
					worst = math.Max(worst, rel)
					if !(rel <= 1e-12) {
						t.Errorf("%s point %d: F_gram %.17g, F_data %.17g: |diff| = %.3g·(c + |F|) > 1e-12, c = %.6g",
							name, i, fg, fd, rel, c)
					}
					for rank := 1; rank < procs; rank++ {
						if gram[rank][i] != fg {
							t.Errorf("%s point %d: rank %d F_gram %.17g != rank 0's %.17g", name, i, rank, gram[rank][i], fg)
						}
					}
				}
			}
		}
		t.Logf("%s (%d x %d): worst |F_gram − F_data| = %.2g·(c + |F|)", s.name, s.m, s.d, worst)
	}
}

// fillCounter counts the Gram fills among the shared allreduces. At
// k = 1 the stage-C batch with its vote trailer is as long as a fill;
// its last word is the cancel flag, 0 in these uncancelled runs, where
// a fill's is the rank's Σy²/2m > 0.
type fillCounter struct {
	dist.Comm
	words int
	fills int
}

func (c *fillCounter) AllreduceShared(local []float64) []float64 {
	if len(local) == c.words && local[len(local)-1] != 0 {
		c.fills++
	}
	return c.Comm.AllreduceShared(local)
}

// TestGramObjectiveEngagement pins when the triple is filled: exactly
// once, at evaluation ⌈(d+3)/2⌉, on f64 dense-slot runs (blocking,
// pipelined, SFISTA), after which only final checkpoints take a data
// pass; never under a CompressTier, under ActiveSet, or on a W0
// zero-round solve.
func TestGramObjectiveEngagement(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := p.X.Rows
	at := gramFillAt(d)
	if at != (d+3+1)/2 {
		t.Fatalf("gramFillAt(%d) = %d, want ⌈(d+3)/2⌉", d, at)
	}

	for _, tc := range []struct {
		name string
		edit func(o *Options)
	}{
		{"rcsfista", func(o *Options) {}},
		{"pipelined", func(o *Options) { o.Pipeline = true; o.K = 2; o.S = 2; o.EvalEvery = 1 }},
		{"sfista", func(o *Options) { o.K, o.S = 1, 1 }},
		{"plain", func(o *Options) { o.VarianceReduced = false }},
	} {
		o := gramOpts(p)
		tc.edit(&o)
		counters := make([]*fillCounter, 4)
		wrap := func(c dist.Comm) dist.Comm {
			fc := &fillCounter{Comm: c, words: mat.PackedLen(d) + d + 1}
			counters[c.Rank()] = fc
			return fc
		}
		_, engines, err := engineWorld(t, "chan", 4, p, o, wrap, func(e *engine) (*Result, error) {
			return e.run(context.Background(), e, e)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rank, e := range engines {
			if counters[rank].fills != 1 || e.gram.h == nil {
				t.Errorf("%s rank %d: %d fills, want 1", tc.name, rank, counters[rank].fills)
			}
			// at−1 data passes, the fill at evaluation at, then Gram values
			// up to the final checkpoint's data pass.
			if e.gram.evals != at {
				t.Errorf("%s rank %d: %d data passes, want %d", tc.name, rank, e.gram.evals, at)
			}
		}
	}

	never := []struct {
		name string
		edit func(o *Options)
	}{
		{"f32", func(o *Options) { o.CompressTier = "f32" }},
		{"i8", func(o *Options) { o.CompressTier = "i8" }},
		{"auto", func(o *Options) { o.CompressTier = "auto" }},
		{"activeset", func(o *Options) { o.ActiveSet = true }},
	}
	for _, tc := range never {
		o := gramOpts(p)
		tc.edit(&o)
		res, engines, err := runEngines(context.Background(), t, "chan", 4, p, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rank, e := range engines {
			if e.gram.h != nil {
				t.Errorf("%s rank %d: resident Gram filled", tc.name, rank)
			}
			// One pass per evaluation; screening redoes some windows.
			if e.gram.evals < res.Iters+1 {
				t.Errorf("%s rank %d: %d data passes for %d updates, want every evaluation", tc.name, rank, e.gram.evals, res.Iters)
			}
		}
	}

	// A warm start at the optimum returns before its first round: one
	// evaluation, through the data.
	o := gramOpts(p)
	o.W0, _ = Reference(p.X, p.Y, p.Lambda, 2000)
	o.GradMapTol = 1e-3
	res, engines, err := runEngines(context.Background(), t, "chan", 4, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("warm start ran %d rounds, want the zero-round path", res.Rounds)
	}
	for rank, e := range engines {
		if e.gram.h != nil || e.gram.evals != 1 {
			t.Errorf("W0 rank %d: filled=%t after %d data passes, want no fill and 1 pass", rank, e.gram.h != nil, e.gram.evals)
		}
	}
}

// sameRun fails unless two solves agree bit for bit on everything the
// objective path must not touch.
func sameRun(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.Iters != b.Iters || a.Rounds != b.Rounds || a.Converged != b.Converged {
		t.Errorf("%s: iters/rounds/converged %d/%d/%t vs %d/%d/%t", name,
			a.Iters, a.Rounds, a.Converged, b.Iters, b.Rounds, b.Converged)
	}
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %+v vs %+v", name, a.Cost, b.Cost)
	}
	if math.Float64bits(a.FinalObj) != math.Float64bits(b.FinalObj) {
		t.Errorf("%s: FinalObj %.17g vs %.17g", name, a.FinalObj, b.FinalObj)
	}
	if a.Faults != b.Faults {
		t.Errorf("%s: fault stats %+v vs %+v", name, a.Faults, b.Faults)
	}
	for i := range a.W {
		if math.Float64bits(a.W[i]) != math.Float64bits(b.W[i]) {
			t.Errorf("%s: W[%d] %.17g vs %.17g", name, i, a.W[i], b.W[i])
			return
		}
	}
}

// TestGramObjectiveMovesNothing: a run evaluating after every update
// (Gram engaged) and the same run evaluating only at the end (never
// engaged) agree bit for bit on W, Iters, Rounds, Cost and FinalObj —
// under MaxIter, the gradient-map stop, pipelining and SFISTA.
func TestGramObjectiveMovesNothing(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		procs int
		edit  func(o *Options)
	}{
		{"maxiter/p1", 1, func(o *Options) {}},
		{"maxiter/p4", 4, func(o *Options) {}},
		{"gradmap/p4", 4, func(o *Options) { o.GradMapTol = 1e-4; o.MaxIter = 2000 }},
		{"pipelined/p4", 4, func(o *Options) { o.Pipeline = true; o.K = 4; o.S = 2 }},
		{"sfista/p2", 2, func(o *Options) { o.K, o.S = 1, 1 }},
		{"plain/p4", 4, func(o *Options) { o.VarianceReduced = false; o.K = 2 }},
	} {
		run := func(evalEvery int) *Result {
			o := gramOpts(p)
			tc.edit(&o)
			o.EvalEvery = evalEvery
			if evalEvery == 0 {
				o.EvalEvery = o.MaxIter
			}
			res, engines, err := runEngines(context.Background(), t, "chan", tc.procs, p, o)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if engaged := engines[0].gram.h != nil; engaged != (evalEvery == 1) {
				t.Fatalf("%s EvalEvery=%d: Gram engaged = %t", tc.name, o.EvalEvery, engaged)
			}
			return res
		}
		sameRun(t, tc.name, run(1), run(0))
	}
}

// TestGramObjectiveTolStop: a Tol stop reached on Gram-evaluated
// checkpoints stops where the data passes alone stop it, with the same
// recorded objective; only interior trace objectives move, by at most
// 1e-12 relative.
func TestGramObjectiveTolStop(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 4000)
	o := gramOpts(p)
	o.MaxIter = 5000
	o.FStar = fstar
	o.Tol = 1e-4
	run := func(gram bool) *Result {
		res, _, err := engineWorld(t, "chan", 4, p, o, nil, func(e *engine) (*Result, error) {
			if !gram {
				e.gram.at = 0
			}
			return e.run(context.Background(), e, e)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withGram, dataOnly := run(true), run(false)
	if !dataOnly.Converged || dataOnly.Iters <= gramFillAt(p.X.Rows) {
		t.Fatalf("reference run stopped at %d updates (converged %t): the Tol stop must land after the fill",
			dataOnly.Iters, dataOnly.Converged)
	}
	sameRun(t, "tol", withGram, dataOnly)
	a, b := withGram.Trace.Points, dataOnly.Trace.Points
	if len(a) != len(b) {
		t.Fatalf("trace has %d points, data-only run %d", len(a), len(b))
	}
	last := len(a) - 1
	if x, y := a[last], b[last]; x.Iter != y.Iter || math.Float64bits(x.Obj) != math.Float64bits(y.Obj) ||
		math.Float64bits(x.RelErr) != math.Float64bits(y.RelErr) || x.ModelSec != y.ModelSec {
		t.Errorf("stopping point %+v differs from the data pass's %+v", x, y)
	}
	for i := range a {
		if d := math.Abs(a[i].Obj - b[i].Obj); !(d <= 1e-12*math.Abs(b[i].Obj)) {
			t.Errorf("point %d: Gram objective %.17g vs data %.17g", i, a[i].Obj, b[i].Obj)
		}
	}
}

// TestGramObjectiveAllocationFree pins the warm Gram evaluation at zero
// allocations.
func TestGramObjectiveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), gramOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	e.fillGram()
	for i := range e.wCurr {
		if i%3 == 0 {
			e.wCurr[i] = 0.01 * float64(i)
		}
	}
	e.evaluate(false)
	if n := testing.AllocsPerRun(100, func() { e.evaluate(false) }); n != 0 {
		t.Fatalf("warm Gram evaluation allocated %g times per call", n)
	}
	if e.gram.evals != 0 {
		t.Fatalf("Gram evaluations took %d data passes", e.gram.evals)
	}
}

// cancelAfter is a context whose Err reports err (Canceled unless
// set otherwise) from its n-th call on. The round loop polls Err once
// per rank per delivered round, for the flag the round's exchange
// carries, so the solve stops at a round fixed by n, not by the clock.
type cancelAfter struct {
	context.Context
	left atomic.Int64
	err  error
}

func newCancelAfter(n int64) *cancelAfter { return expireAfter(n, context.Canceled) }

func expireAfter(n int64, err error) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), err: err}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return c.err
	}
	return nil
}

// TestGramObjectiveCancelAfterFill: a solve cancelled after the fill
// returns a well-formed partial Result, leaks no goroutine and leaves
// every rank holding its triple.
func TestGramObjectiveCancelAfterFill(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	const procs, rounds = 4, 40
	for _, backend := range []string{"chan", "tcp"} {
		for _, pipeline := range []bool{false, true} {
			o := gramOpts(p)
			o.K, o.S = 1, 1
			o.MaxIter = 100000
			o.Pipeline = pipeline
			baseline := runtime.NumGoroutine()
			res, engines, err := runEngines(newCancelAfter(procs*rounds), t, backend, procs, p, o)
			name := fmt.Sprintf("%s/pipeline=%t", backend, pipeline)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", name, err)
			}
			requireWellFormedPartial(t, res, p.X.Rows)
			if res.Iters >= o.MaxIter || res.Iters < gramFillAt(p.X.Rows) {
				t.Fatalf("%s: cancelled after %d updates, want past the fill and short of MaxIter", name, res.Iters)
			}
			// Cancelled mid-run, so no final data pass followed the fill.
			for rank, e := range engines {
				if e.gram.h == nil || e.gram.evals != gramFillAt(p.X.Rows)-1 {
					t.Errorf("%s rank %d: filled=%t after %d data passes", name, rank, e.gram.h != nil, e.gram.evals)
				}
			}
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// TestGramObjectiveUnderFaults: the fill is a pass-through collective,
// so a FaultPlan run with drops, corruption and a crash engages the
// Gram in lockstep and lands on the same iterate as the run that never
// engages it.
func TestGramObjectiveUnderFaults(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() *dist.FaultPlan {
		return &dist.FaultPlan{
			Seed:          11,
			DropProb:      0.25,
			CorruptProb:   0.15,
			StragglerProb: 0.2,
			Schedule:      []dist.ScheduledFault{{Round: 2, Kind: dist.FaultDrop, Attempts: 0}},
			Crash:         &dist.Crash{Rank: 1, Round: 4, Outage: 2, RestartSec: 2e-3},
		}
	}
	for _, pipeline := range []bool{false, true} {
		run := func(evalEvery int) (*Result, []*engine) {
			o := gramOpts(p)
			o.MaxIter = 120
			o.Faults = plan()
			o.MaxRetries = 2
			o.Pipeline = pipeline
			o.EvalEvery = evalEvery
			res, engines, err := runEngines(context.Background(), t, "chan", 4, p, o)
			if err != nil {
				t.Fatal(err)
			}
			return res, engines
		}
		name := fmt.Sprintf("pipeline=%t", pipeline)
		res, engines := run(1)
		ref, _ := run(120)
		if res.Faults.FailedRounds == 0 || res.Faults.Retries == 0 {
			t.Fatalf("%s: the plan injected nothing: %+v", name, res.Faults)
		}
		for rank, e := range engines {
			if e.gram.h == nil || e.gram.evals != gramFillAt(p.X.Rows) {
				t.Errorf("%s rank %d: filled=%t after %d data passes", name, rank, e.gram.h != nil, e.gram.evals)
			}
		}
		sameRun(t, name, res, ref)
	}
}
