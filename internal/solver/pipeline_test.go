package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// loopSolve solves o on a procs-rank world over backend — one SelfComm
// rank when backend is "self" — with the engine on the blocking or the
// pipelined round loop as asked, not as production would pick.
func loopSolve(ctx context.Context, t *testing.T, backend string, procs int, p *data.Problem, o Options, pipelined bool) (*Result, error) {
	t.Helper()
	run := func(e *engine) (*Result, error) { return e.run(ctx, e, e, pipelined) }
	if backend == "self" {
		e, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), o)
		if err != nil {
			t.Fatal(err)
		}
		return run(e)
	}
	res, _, err := engineWorld(t, backend, procs, p, o, nil, run)
	return res, err
}

// requireSameResult fails unless two results agree bit for bit on
// everything but wall time: the iterate, counters, stop, final
// objective and gradient-map norm, Cost, ModelSeconds, fault stats, and
// every trace point and event.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	requireBitIdentical(t, label, a, b)
	if a.Converged != b.Converged || a.Faults != b.Faults {
		t.Fatalf("%s: converged/faults %t %+v vs %t %+v", label, a.Converged, a.Faults, b.Converged, b.Faults)
	}
	if a.Cost != b.Cost {
		t.Fatalf("%s: cost %+v vs %+v", label, a.Cost, b.Cost)
	}
	for _, f := range [][2]float64{{a.ModelSeconds, b.ModelSeconds}, {a.FinalRelErr, b.FinalRelErr}, {a.GradMap, b.GradMap}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s: ModelSeconds/FinalRelErr/GradMap %v vs %v", label,
				[]float64{a.ModelSeconds, a.FinalRelErr, a.GradMap}, []float64{b.ModelSeconds, b.FinalRelErr, b.GradMap})
		}
	}
	// %v prints each float's shortest round-tripping form: equal strings
	// are equal bits.
	for i := range a.Trace.Points {
		pa, pb := a.Trace.Points[i], b.Trace.Points[i]
		pa.WallSec, pb.WallSec = 0, 0
		if fmt.Sprintf("%+v", pa) != fmt.Sprintf("%+v", pb) {
			t.Fatalf("%s: trace point %d: %+v vs %+v", label, i, pa, pb)
		}
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("%s: %d vs %d events", label, len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("%s: event %d: %+v vs %+v", label, i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
}

// fillCounter is the engine's BatchFiller, counting the batches filled.
type fillCounter struct {
	*engine
	fills int
}

func (f *fillCounter) Fill(buf []float64) perf.Cost {
	f.fills++
	return f.engine.Fill(buf)
}

// TestLoopEquivalence is the invariant that lets the engine pick the
// round loop: the blocking and the pipelined loop give bit-identical W,
// Cost, ModelSeconds, trace points and events — the model has no
// overlap term and each fill is charged when its batch is posted — and
// fill as many batches: a speculative fill is made only under a round
// that cannot stop, so none is thrown away at a stop. It covers a GradMapTol stop on a VR snapshot, a Tol stop, a FaultPlan
// that skips, retries and degrades, and a cancel mid-solve, at P = 1
// and 4 on chan and over tcp, where a post ships data before Wait.
func TestLoopEquivalence(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, fstar := Reference(p.X, p.Y, p.Lambda, 4000)
	const cancelAt = 9
	cases := []struct {
		name string
		edit func(o *Options)
		// cancel, when set, expires rank P−1's context at round cancelAt.
		cancel bool
		check  func(res *Result) bool
	}{
		{"gradmap/vr", func(o *Options) { o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000 },
			false, func(res *Result) bool { return res.Converged && !math.IsNaN(res.GradMap) }},
		{"tol", func(o *Options) { o.K, o.EvalEvery, o.FStar, o.Tol, o.MaxIter = 2, 5, fstar, 1e-3, 4000 },
			false, func(res *Result) bool { return res.Converged && math.IsNaN(res.GradMap) }},
		{"faults", func(o *Options) {
			o.K, o.EvalEvery, o.MaxIter = 2, 8, 80
			o.Faults = &dist.FaultPlan{Seed: 17, MaxRetries: 2, Schedule: []dist.ScheduledFault{
				{Round: 0, Kind: dist.FaultDrop},              // no batch yet: skip
				{Round: 2, Kind: dist.FaultDrop, Attempts: 1}, // transient: retry succeeds
				{Round: 4, Kind: dist.FaultDrop},              // hard: degrade to the stale batch
				{Round: 6, Kind: dist.FaultStraggler, Rank: 1, DelaySec: 1e-3},
			}}
		}, false, func(res *Result) bool {
			f := res.Faults
			return f.SkippedRounds > 0 && f.Retries > 0 && f.DegradedRounds > 0
		}},
		{"cancel", func(o *Options) { o.K, o.EvalEvery, o.MaxIter = 2, 4, 100000 },
			true, func(res *Result) bool { return res.Rounds == cancelAt+1 }},
	}
	for _, leg := range []struct {
		backend string
		procs   int
	}{{"chan", 1}, {"chan", 4}, {"tcp", 4}} {
		for _, tc := range cases {
			name := fmt.Sprintf("%s/p%d/%s", leg.backend, leg.procs, tc.name)
			o := gramOpts(p)
			tc.edit(&o)
			var res [2]*Result
			var fills [2]int
			for i, pipelined := range []bool{false, true} {
				r, _, err := engineWorld(t, leg.backend, leg.procs, p, o, nil, func(e *engine) (*Result, error) {
					var ctx context.Context = context.Background()
					if tc.cancel && e.c.Rank() == leg.procs-1 {
						ctx = roundCtx{Context: ctx, rounds: &e.rec.Rounds, at: cancelAt}
					}
					fc := &fillCounter{engine: e}
					defer func() {
						if e.c.Rank() == 0 {
							fills[i] = fc.fills
						}
					}()
					return e.run(ctx, fc, e, pipelined)
				})
				if tc.cancel != (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					t.Fatalf("%s pipelined=%t: err = %v", name, pipelined, err)
				}
				if !tc.check(r) {
					t.Fatalf("%s pipelined=%t: the case did not happen: rounds %d, converged %t, GradMap %g, faults %+v",
						name, pipelined, r.Rounds, r.Converged, r.GradMap, r.Faults)
				}
				res[i] = r
			}
			requireSameResult(t, name, res[0], res[1])
			// A cancel vote is read after the next batch is filled.
			if extra := fills[1] - fills[0]; extra != 0 && !(tc.cancel && extra == 1) {
				t.Errorf("%s: the pipelined loop filled %d batches, the blocking loop %d", name, fills[1], fills[0])
			}
		}
	}
}

// TestLoopPolicy pins who picks the loop: the engine, from ActiveSet
// alone. A dense solve posts every batch nonblocking; a screened solve
// posts none, and flipping the ignored Options.Pipeline moves no byte
// of its Result.
func TestLoopPolicy(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 2
	solve := func(o Options) (*Result, []*CallCounter) {
		t.Helper()
		counters := make([]*CallCounter, procs)
		res, err := solvercore.RunWorld(dist.NewWorld(procs, perf.Comet()), func(c dist.Comm) (*Result, error) {
			cc := &CallCounter{Comm: c}
			counters[c.Rank()] = cc
			return RCSFISTA(cc, Partition(p.X, p.Y, procs, c.Rank()), o)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, counters
	}
	o := gramOpts(p)
	o.K, o.GradMapTol, o.MaxIter = 2, 1e-4, 4000
	res, counters := solve(o)
	for rank, cc := range counters {
		if n := cc.Count("iallreduce_shared", -1); n != res.Rounds {
			t.Errorf("dense rank %d: %d nonblocking posts in %d rounds, want one per round", rank, n, res.Rounds)
		}
	}
	o.ActiveSet = true
	var ref *Result
	for _, pipe := range []bool{false, true} {
		o.Pipeline = pipe
		res, counters := solve(o)
		for rank, cc := range counters {
			if n := cc.Count("iallreduce_shared", -1); n != 0 {
				t.Errorf("screened Pipeline=%t rank %d: %d nonblocking posts, want none", pipe, rank, n)
			}
		}
		if ref != nil {
			requireSameResult(t, "screened Pipeline flipped", ref, res)
		}
		ref = res
	}
}

// TestPipelineGoldenBitIdentical: the pipelined loop changes when stage
// B runs relative to the in-flight stage C collective and nothing else
// — every iterate, objective, cost, modeled second and trace point
// matches the blocking loop to the last bit, across rank counts and
// GOMAXPROCS settings (the stage-B worker pool must not leak scheduling
// into the result either way).
func TestPipelineGoldenBitIdentical(t *testing.T) {
	p, gamma, fstar := testProblem(t, 16, 200, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 120
	o.K = 4
	o.S = 2
	o.EvalEvery = 8
	solve := func(procs int, pipelined bool) *Result {
		backend := "chan"
		if procs == 1 {
			backend = "self"
		}
		res, err := loopSolve(context.Background(), t, backend, procs, p, o, pipelined)
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		return res
	}

	for _, procs := range []int{1, 4, 8} {
		blocking := solve(procs, false)
		for _, gomax := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(gomax)
			pipelined := solve(procs, true)
			runtime.GOMAXPROCS(prev)
			requireSameResult(t, fmt.Sprintf("P=%d GOMAXPROCS=%d", procs, gomax), blocking, pipelined)
		}
	}
}

// TestPipelineFaultPlanBitIdentical: under a deterministic FaultPlan
// the pipelined loop must resolve every verdict at Wait exactly as the
// blocking loop resolves it inline — same iterates, same fault stats,
// same recovery events, including a hard-dropped round that degrades to
// the stale batch and stragglers resolving at Wait.
func TestPipelineFaultPlanBitIdentical(t *testing.T) {
	p, gamma, fstar := testProblem(t, 12, 120, 0.5)
	plan := &dist.FaultPlan{
		Seed: 17,
		Schedule: []dist.ScheduledFault{
			{Round: 1, Kind: dist.FaultDrop, Attempts: 1}, // transient: retry succeeds
			{Round: 3, Kind: dist.FaultDrop},              // hard: degrade to stale batch
			{Round: 5, Kind: dist.FaultStraggler, Rank: 2, DelaySec: 1e-3},
			{Round: 7, Kind: dist.FaultCorrupt, Rank: 1},
		},
	}
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 80
	o.K = 2
	o.EvalEvery = 8
	o.Faults = plan
	run := func(pipelined bool) *Result {
		res, err := loopSolve(context.Background(), t, "chan", 4, p, o, pipelined)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		return res
	}
	blocking := run(false)
	requireSameResult(t, "pipeline-faults", blocking, run(true))
	if blocking.Faults.DegradedRounds < 1 || blocking.Faults.Retries < 1 {
		t.Fatalf("plan did not exercise retry and degradation: %+v", blocking.Faults)
	}
}

// TestPipelineRepeatedRunsDeterministic: the pipelined loop itself is a
// golden function of (options, seed) — costs included, because the
// stage-B worker pool merges in slot order.
func TestPipelineRepeatedRunsDeterministic(t *testing.T) {
	p, gamma, _ := testProblem(t, 14, 180, 0.5)
	o := baseOpts(p, gamma, 0)
	o.Tol = 0 // no reference optimum needed here
	o.MaxIter = 64
	o.K = 8
	o.EvalEvery = 16
	run := func() *Result {
		res, err := loopSolve(context.Background(), t, "self", 1, p, o, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameResult(t, "pipeline-repeat", run(), run())
}
