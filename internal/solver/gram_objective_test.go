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
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// The resident Gram (rcsfista_eval.go): its objective and snapshot
// gradient against the data passes they replace, that every solve the
// path is on for holds it from round 0, and that reading it moves
// nothing the data passes decide.

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
// every update, so every update's objective reads the resident Gram.
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

// runEngines is engineWorld running the production stages on the
// blocking or the pipelined round loop.
func runEngines(ctx context.Context, t *testing.T, backend string, procs int, p *data.Problem, o Options, pipelined bool) (*Result, []*engine, error) {
	t.Helper()
	return engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
		return e.run(ctx, e, e, pipelined)
	})
}

// passCounter counts, on one rank, the resident Gram's fills and the
// data passes its readers replace, and through its CallCounter every
// collective. A fill is a shared allreduce of PackedLen(d)+d+1 words
// whose last word, the rank's Σy²/2m, is nonzero; at k = 1 the stage-C
// batch with its vote trailer is as long, but its last word is the
// cancel flag, 0 in an uncancelled run. An objective pass is a one-word
// sum, a snapshot pass a d-word one.
type passCounter struct {
	*CallCounter
	d                  int
	fills, objs, snaps int
}

func newPassCounter(c dist.Comm, d int) *passCounter {
	return &passCounter{CallCounter: &CallCounter{Comm: c}, d: d}
}

func (c *passCounter) AllreduceShared(local []float64) []float64 {
	if len(local) == mat.PackedLen(c.d)+c.d+1 && local[len(local)-1] != 0 {
		c.fills++
	}
	return c.CallCounter.AllreduceShared(local)
}

func (c *passCounter) Allreduce(buf []float64, op dist.Op) {
	if op == dist.OpSum {
		switch len(buf) {
		case 1:
			c.objs++
		case c.d:
			c.snaps++
		}
	}
	c.CallCounter.Allreduce(buf, op)
}

// calls is the number of collectives of every kind the rank issued.
func (c *passCounter) calls() int { return len(c.Log) }

// counting returns an engineWorld wrap that puts a passCounter on
// every rank, and the counters by rank.
func counting(procs, d int) (func(dist.Comm) dist.Comm, []*passCounter) {
	counters := make([]*passCounter, procs)
	return func(c dist.Comm) dist.Comm {
		pc := newPassCounter(c, d)
		counters[c.Rank()] = pc
		return pc
	}, counters
}

// dataObjective is evaluate's data pass at wCurr on an engine that
// holds the triple, which every evaluation of its own reads instead.
func (e *engine) dataObjective() float64 {
	tri := e.tri
	e.tri = nil
	defer func() { e.tri = tri }()
	return e.evaluate()
}

// countedRun is runEngines with a passCounter on every rank.
func countedRun(ctx context.Context, t *testing.T, backend string, procs int, p *data.Problem, o Options, pipelined bool) (*Result, []*engine, []*passCounter, error) {
	t.Helper()
	wrap, counters := counting(procs, p.X.Rows)
	res, engines, err := engineWorld(t, backend, procs, p, o, wrap, func(e *engine) (*Result, error) {
		return e.run(ctx, e, e, pipelined)
	})
	return res, engines, counters, err
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
				wrap, counters := counting(procs, p.X.Rows)
				_, _, err := engineWorld(t, backend, procs, p, gramOpts(p), wrap, func(e *engine) (*Result, error) {
					e.fillGram()
					vals := make([]float64, len(points))
					for i, w := range points {
						copy(e.wCurr, w)
						e.wVer++
						vals[i] = e.evaluate()
						if f := e.dataObjective(); e.c.Rank() == 0 {
							dataF[i], c = f, e.tri.c
						}
					}
					gram[e.c.Rank()] = vals
					if pc := counters[e.c.Rank()]; pc.fills != 1 || pc.objs != len(points) {
						return nil, fmt.Errorf("rank %d: %d fills and %d data passes, want 1 and %d", e.c.Rank(), pc.fills, pc.objs, len(points))
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

// TestGramObjectiveEngagement pins when the triple is filled and what
// a solve that holds it still sends: the fill, exactly once before
// round 0, on f64 dense-slot runs (blocking, pipelined, SFISTA, plain,
// cold and warm at W0, on chan and tcp at P ∈ {1, 2, 4}) and auto on
// one rank, after which the solve takes no objective or snapshot data
// pass and issues exactly one collective per round — Rounds + 1 in all,
// a warm start that certifies at W0 one; never under a CompressTier on
// P > 1 or under ActiveSet.
func TestGramObjectiveEngagement(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	wRef, _ := Reference(p.X, p.Y, p.Lambda, 2000)
	half := mat.Clone(wRef)
	mat.Scal(0.5, half, nil)
	for _, tc := range []struct {
		name      string
		pipelined bool
		edit      func(o *Options)
	}{
		{"rcsfista", false, func(o *Options) {}},
		{"pipelined", true, func(o *Options) { o.K = 2; o.S = 2; o.EvalEvery = 1 }},
		{"sfista", false, func(o *Options) { o.K, o.S = 1, 1 }},
		{"plain", true, func(o *Options) { o.VarianceReduced = false }},
		{"warm", true, func(o *Options) { o.W0 = half }},
		{"plain/warm", true, func(o *Options) { o.VarianceReduced = false; o.W0 = half }},
		{"warm/certified", true, func(o *Options) { o.W0, o.GradMapTol = wRef, 1e-3 }},
	} {
		for _, backend := range []string{"chan", "tcp"} {
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/p%d", tc.name, backend, procs)
				o := gramOpts(p)
				tc.edit(&o)
				res, engines, counters, err := countedRun(context.Background(), t, backend, procs, p, o, tc.pipelined)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if certified := o.GradMapTol > 0; certified != (res.Rounds == 0) || res.Rounds == 0 && !res.Converged {
					t.Fatalf("%s: %d rounds, converged %t", name, res.Rounds, res.Converged)
				}
				for rank, e := range engines {
					pc := counters[rank]
					if pc.fills != 1 || e.tri == nil || pc.objs != 0 || pc.snaps != 0 {
						t.Errorf("%s rank %d: %d fills, %d objective and %d snapshot passes; want 1 fill and no data pass",
							name, rank, pc.fills, pc.objs, pc.snaps)
					}
					if n, want := pc.calls(), res.Rounds+1; n != want {
						t.Errorf("%s rank %d: %d collectives in %d rounds, want %d: the fill and one per round",
							name, rank, n, res.Rounds, want)
					}
				}
			}
		}
	}

	// Under ActiveSet every evaluation takes its data pass (screening
	// redoes some windows).
	o := gramOpts(p)
	o.ActiveSet = true
	res, engines, counters, err := countedRun(context.Background(), t, "chan", 4, p, o, false)
	if err != nil {
		t.Fatal(err)
	}
	for rank, e := range engines {
		if n := counters[rank].objs; e.tri != nil || n < res.Iters+1 {
			t.Errorf("activeset rank %d: filled=%t, %d data passes for %d updates, want no fill and every evaluation",
				rank, e.tri != nil, n, res.Iters)
		}
	}
	// Auto prices every rung at zero on one rank and stays on f64, so it
	// reads the Gram there; every other tier setting quantizes and never
	// fills.
	for _, tier := range []string{"f32", "i8", "auto"} {
		for _, procs := range []int{1, 4} {
			o := gramOpts(p)
			o.CompressTier = tier
			_, engines, err := runEngines(context.Background(), t, "chan", procs, p, o, false)
			if err != nil {
				t.Fatal(err)
			}
			want := tier == "auto" && procs == 1
			if e := engines[0]; (e.tri != nil) != want {
				t.Errorf("%s/p%d: filled=%t, want %t", tier, procs, e.tri != nil, want)
			}
		}
	}
}

// sameRun fails unless two solves agree bit for bit on everything the
// objective path must not touch, and on FinalObj within objTol of b's
// relative (bit for bit at 0).
func sameRun(t *testing.T, name string, a, b *Result, objTol float64) {
	t.Helper()
	if a.Iters != b.Iters || a.Rounds != b.Rounds || a.Converged != b.Converged {
		t.Errorf("%s: iters/rounds/converged %d/%d/%t vs %d/%d/%t", name,
			a.Iters, a.Rounds, a.Converged, b.Iters, b.Rounds, b.Converged)
	}
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %+v vs %+v", name, a.Cost, b.Cost)
	}
	if d := math.Abs(a.FinalObj - b.FinalObj); objTol == 0 && math.Float64bits(a.FinalObj) != math.Float64bits(b.FinalObj) ||
		!(d <= objTol*math.Abs(b.FinalObj)) {
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

// TestGramObjectiveMovesNothing: runs evaluating after every update or
// every 7th and the same run evaluating only at the end agree bit for
// bit on W, Iters, Rounds, Cost and FinalObj — under MaxIter, the
// gradient-map stop, pipelining, SFISTA and without variance
// reduction. Every one fills the triple before round 0; without
// variance reduction only the objectives read it, so its fill is
// rolled back and a run with the path off costs the same, its data-pass
// FinalObj within 1e-12 of the triple's.
func TestGramObjectiveMovesNothing(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		procs     int
		pipelined bool
		edit      func(o *Options)
	}{
		{"maxiter/p1", 1, false, func(o *Options) {}},
		{"maxiter/p4", 4, false, func(o *Options) {}},
		{"gradmap/p4", 4, false, func(o *Options) { o.GradMapTol = 1e-4; o.MaxIter = 2000 }},
		{"pipelined/p4", 4, true, func(o *Options) { o.K = 4; o.S = 2 }},
		{"sfista/p2", 2, false, func(o *Options) { o.K, o.S = 1, 1 }},
		{"plain/p4", 4, false, func(o *Options) { o.VarianceReduced = false; o.K = 2 }},
	} {
		o := gramOpts(p)
		tc.edit(&o)
		run := func(evalEvery int, gram bool) *Result {
			o := o
			o.EvalEvery = evalEvery
			if evalEvery == 0 {
				o.EvalEvery = o.MaxIter
			}
			res, engines, err := engineWorld(t, "chan", tc.procs, p, o, nil, func(e *engine) (*Result, error) {
				e.fillsTri = gram
				return e.run(context.Background(), e, e, tc.pipelined)
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if e := engines[0]; (e.tri != nil) != gram {
				t.Fatalf("%s EvalEvery=%d: filled the triple %t", tc.name, o.EvalEvery, e.tri != nil)
			}
			return res
		}
		ref := run(0, true)
		sameRun(t, tc.name+"/eval=1", run(1, true), ref, 0)
		sameRun(t, tc.name+"/eval=7", run(7, true), ref, 0)
		if !o.VarianceReduced {
			sameRun(t, tc.name+"/off", run(1, false), ref, 1e-12)
		}
	}
}

// TestGramObjectiveTolStop: a Tol stop reached on Gram-evaluated
// checkpoints stops where the data passes alone stop it; the recorded
// objectives, the stopping one and FinalObj included, move by at most
// 1e-12 relative. The solve is full-batch FISTA (b = 1, no variance
// reduction), so the objective is the only Gram reader and switching
// the path off changes nothing else.
func TestGramObjectiveTolStop(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 4000)
	o := gramOpts(p)
	o.B = 1
	o.VarianceReduced = false
	o.MaxIter = 5000
	o.FStar = fstar
	o.Tol = 1e-4
	run := func(gram bool) *Result {
		res, _, err := engineWorld(t, "chan", 4, p, o, nil, func(e *engine) (*Result, error) {
			e.fillsTri = gram
			return e.run(context.Background(), e, e, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withGram, dataOnly := run(true), run(false)
	if !dataOnly.Converged {
		t.Fatalf("reference run stopped at %d updates without converging", dataOnly.Iters)
	}
	sameRun(t, "tol", withGram, dataOnly, 1e-12)
	a, b := withGram.Trace.Points, dataOnly.Trace.Points
	if len(a) != len(b) {
		t.Fatalf("trace has %d points, data-only run %d", len(a), len(b))
	}
	if x, y := a[len(a)-1], b[len(b)-1]; x.Iter != y.Iter || x.ModelSec != y.ModelSec {
		t.Errorf("stopping point %+v differs from the data pass's %+v", x, y)
	}
	moved := 0
	for i := range a {
		if d := math.Abs(a[i].Obj - b[i].Obj); !(d <= 1e-12*math.Abs(b[i].Obj)) {
			t.Errorf("point %d: Gram objective %.17g vs data %.17g", i, a[i].Obj, b[i].Obj)
		}
		if a[i].Obj != b[i].Obj {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no interior objective came from the Gram")
	}
}

// TestGramObjectiveAllocationFree pins the warm exact-state readers at
// zero allocations: the Gram evaluation and snapshot, a take from the
// f64 data source, and under ActiveSet a KKT scan and the f64 data-pass
// objective with its one-word allreduce.
func TestGramObjectiveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPassCounter(dist.NewSelfComm(perf.Comet()), p.X.Rows)
	pc.Log = make([]Call, 0, 1000) // the log's growth is the counter's, not the engine's
	e, err := newEngine(pc, Partition(p.X, p.Y, 1, 0), gramOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	e.fillGram()
	for i := range e.wCurr {
		if i%3 == 0 {
			e.wCurr[i] = 0.01 * float64(i)
		}
	}
	e.evaluate()
	if n := testing.AllocsPerRun(100, func() { e.evaluate() }); n != 0 {
		t.Fatalf("warm Gram evaluation allocated %g times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.wVer++; e.refreshSnapshot() }); n != 0 {
		t.Fatalf("warm Gram snapshot allocated %g times per call", n)
	}
	if pc.objs != 0 || pc.snaps != 0 {
		t.Fatalf("Gram readers took %d objective and %d snapshot data passes", pc.objs, pc.snaps)
	}
	data := func() { e.takeExact(false, &e.gradEF, true) }
	data()
	if n := testing.AllocsPerRun(100, data); n != 0 {
		t.Fatalf("warm data-source take allocated %g times per call", n)
	}
	o := gramOpts(p)
	o.ActiveSet = true
	ea, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	copy(ea.wCurr, e.wCurr)
	ea.initActiveSet()
	scan := func() {
		ea.wVer++
		ea.certifyWindow(ea.as.act, false, false)
	}
	scan()
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Fatalf("warm KKT scan allocated %g times per call", n)
	}
	obj := func() {
		ea.wVer++
		ea.evaluate()
	}
	obj()
	if n := testing.AllocsPerRun(100, obj); n != 0 {
		t.Fatalf("warm data-pass objective allocated %g times per call", n)
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
// and a Gram-sourced snapshot returns a well-formed partial Result,
// leaks no goroutine and leaves every rank holding its triple, no
// objective or snapshot having taken a data pass.
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
			baseline := runtime.NumGoroutine()
			res, engines, counters, err := countedRun(newCancelAfter(procs*rounds), t, backend, procs, p, o, pipeline)
			name := fmt.Sprintf("%s/pipeline=%t", backend, pipeline)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", name, err)
			}
			requireWellFormedPartial(t, res, p.X.Rows)
			if res.Iters >= o.MaxIter || res.Iters < o.EpochLen {
				t.Fatalf("%s: cancelled after %d updates, want past a Gram snapshot at %d, short of MaxIter",
					name, res.Iters, o.EpochLen)
			}
			// The triple answered every read, the last checkpoint too.
			for rank, e := range engines {
				if pc := counters[rank]; e.tri == nil || pc.objs != 0 || pc.snaps != 0 {
					t.Errorf("%s rank %d: filled=%t after %d objective and %d snapshot passes",
						name, rank, e.tri != nil, pc.objs, pc.snaps)
				}
			}
			dist.VerifyNoGoroutineLeaks(t, baseline)
		}
	}
}

// TestGramObjectiveUnderFaults: the fill is a pass-through collective
// before round 0, so a FaultPlan run with drops, corruption and a crash
// holds the triple on every rank in lockstep, and evaluating after
// every update or only at the end lands on the same iterate, cost and
// rounds.
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
			MaxRetries:    2,
		}
	}
	for _, pipeline := range []bool{false, true} {
		run := func(evalEvery int) (*Result, []*engine, []*passCounter) {
			o := gramOpts(p)
			o.MaxIter = 120
			o.Faults = plan()
			o.EvalEvery = evalEvery
			res, engines, counters, err := countedRun(context.Background(), t, "chan", 4, p, o, pipeline)
			if err != nil {
				t.Fatal(err)
			}
			return res, engines, counters
		}
		name := fmt.Sprintf("pipeline=%t", pipeline)
		res, engines, counters := run(1)
		ref, _, _ := run(120)
		if res.Faults.FailedRounds == 0 || res.Faults.Retries == 0 {
			t.Fatalf("%s: the plan injected nothing: %+v", name, res.Faults)
		}
		for rank, e := range engines {
			if pc := counters[rank]; e.tri == nil || pc.fills != 1 || pc.objs != 0 || pc.snaps != 0 {
				t.Errorf("%s rank %d: %d fills after %d objective and %d snapshot passes", name, rank, pc.fills, pc.objs, pc.snaps)
			}
		}
		sameRun(t, name, res, ref, 0)
	}
}

// roundIterates is the engine's stage D, keeping on rank 0 a copy of
// the iterate each round leaves.
type roundIterates struct {
	*engine
	ws [][]float64
}

func (r *roundIterates) Process(shared []float64) bool {
	stop := r.engine.Process(shared)
	if r.c.Rank() == 0 {
		r.ws = append(r.ws, mat.Clone(r.wCurr))
	}
	return stop
}

// servedIterates returns the iterates of rounds 0–10 of a solve on
// gramOpts (P = 2, chan), w = 0 first: every one is an iterate the
// solve reads the Gram at.
func servedIterates(t *testing.T, p *data.Problem) [][]float64 {
	o := gramOpts(p)
	o.MaxIter = 10 * o.K * o.S
	var rank0 *roundIterates
	if _, _, err := engineWorld(t, "chan", 2, p, o, nil, func(e *engine) (*Result, error) {
		pass := &roundIterates{engine: e}
		if e.c.Rank() == 0 {
			rank0 = pass
		}
		return e.run(context.Background(), e, pass, false)
	}); err != nil {
		t.Fatal(err)
	}
	if len(rank0.ws) != 10 {
		t.Fatalf("%d rounds, want 10", len(rank0.ws))
	}
	return append([][]float64{make([]float64, p.X.Rows)}, rank0.ws...)
}

// snapNormBand is the relative band TestGramSnapshotMatchesDataPass
// holds the Gram and data gradient-map norms to; measured, they agree
// within 3.3e-12 of the norm.
const snapNormBand = 1e-8

// TestGramSnapshotMatchesDataPass holds the Gram-sourced snapshot to the
// data pass it replaces, at the origin, near the optimum, at a dense
// perturbation of it and at the iterates of rounds 0–10 of a solve
// (servedIterates), on every shape, at P ∈ {1, 2, 4} over both
// transports: the gradient within 1e-12·‖∇f‖∞, every rank on the same
// bits, and the gradient-map norm within snapNormBand of itself.
func TestGramSnapshotMatchesDataPass(t *testing.T) {
	var worstGrad, worstNorm float64
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
		points := append([][]float64{wRef, noisy}, servedIterates(t, p)...)
		for _, backend := range []string{"chan", "tcp"} {
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/p%d", s.name, backend, procs)
				gramGrads := make([][][]float64, procs)
				dataGrads := make([][]float64, len(points))
				gramNorms, dataNorms := make([]float64, len(points)), make([]float64, len(points))
				_, _, err := engineWorld(t, backend, procs, p, gramOpts(p), nil, func(e *engine) (*Result, error) {
					e.fillGram()
					for i, w := range points {
						copy(e.wCurr, w)
						e.takeExact(true, &e.gradEF, true)
						gramGrads[e.c.Rank()] = append(gramGrads[e.c.Rank()], mat.Clone(e.ex.grad))
						gn := e.ex.norm
						e.takeExact(false, &e.gradEF, true)
						if e.c.Rank() == 0 {
							dataGrads[i], gramNorms[i], dataNorms[i] = mat.Clone(e.ex.grad), gn, e.ex.norm
						}
					}
					return e.finish(), nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, dg := range dataGrads {
					gg := gramGrads[0][i]
					var diff float64
					for j := range dg {
						diff = math.Max(diff, math.Abs(gg[j]-dg[j]))
					}
					relGrad := diff / mat.NrmInf(dg)
					relNorm := math.Abs(gramNorms[i]-dataNorms[i]) / dataNorms[i]
					worstGrad, worstNorm = math.Max(worstGrad, relGrad), math.Max(worstNorm, relNorm)
					if !(relGrad <= 1e-12) {
						t.Errorf("%s point %d: max |Δ∇f| = %.3g·‖∇f‖∞ > 1e-12", name, i, relGrad)
					}
					if !(relNorm <= snapNormBand) {
						t.Errorf("%s point %d: gradient-map norm %.17g from the Gram, %.17g from the data: |Δ| = %.3g·norm, over snapNormBand",
							name, i, gramNorms[i], dataNorms[i], relNorm)
					}
					for rank := 1; rank < procs; rank++ {
						for j := range gg {
							if math.Float64bits(gramGrads[rank][i][j]) != math.Float64bits(gg[j]) {
								t.Fatalf("%s point %d: rank %d ∇f[%d] %.17g != rank 0's %.17g", name, i, rank, j, gramGrads[rank][i][j], gg[j])
							}
						}
					}
				}
			}
		}
	}
	t.Logf("worst max |Δ∇f|/‖∇f‖∞ = %.2g, worst |Δnorm|/norm = %.2g (snapNormBand %g)", worstGrad, worstNorm, snapNormBand)
}

// TestGramSnapshotCertifiedStop: a GradMapTol stop whose snapshots,
// w = 0 among them, all read the triple is certified from it, as
// SolveTriple certifies: no snapshot takes a data pass, the solve
// issues Rounds + 1 collectives, and the reported GradMap is bit for bit
// the Gram norm at W plus the triple's rounding bound there (mapErr at
// Gamma). The data-pass norm at W is within that bound of the Gram
// norm, so at most GradMap, and the norm recomputed outside the solver
// from the data is within the tolerance.
func TestGramSnapshotCertifiedStop(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"chan", "tcp"} {
		for _, procs := range []int{1, 4} {
			name := fmt.Sprintf("%s/p%d", backend, procs)
			o := gramOpts(p)
			o.MaxIter, o.GradMapTol, o.EvalEvery = 4000, 1e-4, 1000
			res, engines, counters, err := countedRun(context.Background(), t, backend, procs, p, o, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			refreshes := 1 + res.Iters/o.EpochLen
			if !res.Converged || !(res.GradMap <= o.GradMapTol) || refreshes < 4 {
				t.Fatalf("%s: converged=%t GradMap=%g after %d updates, want the stop several Gram snapshots in",
					name, res.Converged, res.GradMap, res.Iters)
			}
			for rank, pc := range counters {
				if pc.fills != 1 || pc.snaps != 0 || pc.objs != 0 || pc.calls() != res.Rounds+1 {
					t.Errorf("%s rank %d: %d fills, %d snapshot and %d objective data passes, %d collectives in %d rounds; want 1, 0, 0 and %d",
						name, rank, pc.fills, pc.snaps, pc.objs, pc.calls(), res.Rounds, res.Rounds+1)
				}
			}
			tri, reg := engines[0].tri, prox.L1{Lambda: o.Lambda}
			grad, tmp := make([]float64, p.X.Rows), make([]float64, p.X.Rows)
			tri.grad(grad, res.W, nil)
			norm := gradMapNorm(tmp, res.W, grad, o.Gamma, reg, nil)
			bound := tri.mapErr(res.W, grad, norm, o.Gamma, reg, nil)
			if math.Float64bits(res.GradMap) != math.Float64bits(norm+bound) {
				t.Errorf("%s: GradMap %.17g, Gram norm + bound at W %.17g", name, res.GradMap, norm+bound)
			}
			norms := make([]float64, procs)
			_, _, err = engineWorld(t, backend, procs, p, o, nil, func(e *engine) (*Result, error) {
				copy(e.wCurr, res.W)
				e.takeExact(false, &e.gradEF, true)
				norms[e.c.Rank()] = e.ex.norm
				return e.finish(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, n := range norms {
				if !(math.Abs(n-norm) <= bound) {
					t.Errorf("%s rank %d: data-pass norm at W %.17g, Gram norm %.17g, bound %.3g", name, rank, n, norm, bound)
				}
			}
			if out := outsideGradMap(p, reg, res.W, o.Gamma); !(out <= o.GradMapTol) {
				t.Errorf("%s: outside gradient-map norm %.17g > GradMapTol %g", name, out, o.GradMapTol)
			}
		}
	}
}
