package solver

import (
	"runtime"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestPipelineGoldenBitIdentical is the tentpole invariant: flipping
// Options.Pipeline changes when stage B runs relative to the in-flight
// stage C collective and nothing else — every iterate, objective and
// trace point matches the blocking run to the last bit, across rank
// counts and GOMAXPROCS settings (the stage-B worker pool must not
// leak scheduling into the result either way).
func TestPipelineGoldenBitIdentical(t *testing.T) {
	p, gamma, fstar := testProblem(t, 16, 200, 0.5)
	solve := func(procs int, pipeline bool) *Result {
		o := baseOpts(p, gamma, fstar)
		o.Tol = 0
		o.MaxIter = 120
		o.K = 4
		o.S = 2
		o.EvalEvery = 8
		o.Pipeline = pipeline
		if procs == 1 {
			return selfSolve(t, p, o)
		}
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed(P=%d): %v", procs, err)
		}
		return res
	}

	for _, procs := range []int{1, 4, 8} {
		blocking := solve(procs, false)
		for _, gomax := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(gomax)
			pipelined := solve(procs, true)
			runtime.GOMAXPROCS(prev)
			requireBitIdentical(t, "pipeline", blocking, pipelined)

			if procs == 1 {
				// Nothing in flight at P = 1: no overlap credit.
				if pipelined.Cost.OverlapSec != 0 {
					t.Fatalf("P=1 charged overlap %g", pipelined.Cost.OverlapSec)
				}
				continue
			}
			if pipelined.Cost.OverlapSec <= 0 {
				t.Fatalf("P=%d pipelined run hid no time", procs)
			}
			if blocking.Cost.OverlapSec != 0 {
				t.Fatalf("P=%d blocking run charged overlap %g", procs, blocking.Cost.OverlapSec)
			}
			// The acceptance inequality: modeled time strictly below the
			// blocking sum whenever both segments are nonzero.
			if pipelined.ModelSeconds >= blocking.ModelSeconds {
				t.Fatalf("P=%d pipelined %g s not below blocking %g s",
					procs, pipelined.ModelSeconds, blocking.ModelSeconds)
			}
		}
	}
}

// TestPipelineOverlapBounded pins the per-round accounting: total
// hidden time can never exceed (rounds-1) * min(fill, allreduce) and
// the overlapped modeled time is at least max(compute-only, comm-only)
// of the blocking run — max(a,b) <= a+b with equality only when one
// side is zero.
func TestPipelineOverlapBounded(t *testing.T) {
	p, gamma, fstar := testProblem(t, 14, 160, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 96
	o.K = 4
	o.EvalEvery = 16
	o.Pipeline = true
	const procs = 8
	w := dist.NewWorld(procs, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Machine()
	commSec := m.Seconds(dist.AllreduceCost(procs, o.K*(14*15/2+14)))
	if res.Rounds < 2 {
		t.Fatalf("too few rounds (%d) to overlap", res.Rounds)
	}
	ceiling := float64(res.Rounds-1) * commSec
	if res.Cost.OverlapSec <= 0 || res.Cost.OverlapSec > ceiling {
		t.Fatalf("hidden %g s outside (0, %g]", res.Cost.OverlapSec, ceiling)
	}
}

// TestPipelineFaultPlanBitIdentical: under a deterministic FaultPlan
// the pipelined engine must resolve every verdict at Wait exactly as
// the blocking engine resolves it inline — same iterates, same fault
// stats, same recovery events, including a hard-dropped round that
// degrades to the stale batch and stragglers resolving at Wait.
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
	run := func(pipeline bool) *Result {
		o := baseOpts(p, gamma, fstar)
		o.Tol = 0
		o.MaxIter = 80
		o.K = 2
		o.EvalEvery = 8
		o.Faults = plan
		o.Pipeline = pipeline
		w := dist.NewWorld(4, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed: %v", err)
		}
		return res
	}
	blocking := run(false)
	pipelined := run(true)
	requireBitIdentical(t, "pipeline-faults", blocking, pipelined)
	if blocking.Faults != pipelined.Faults {
		t.Fatalf("fault stats differ: %+v vs %+v", blocking.Faults, pipelined.Faults)
	}
	if len(blocking.Trace.Events) != len(pipelined.Trace.Events) {
		t.Fatalf("event counts differ: %d vs %d",
			len(blocking.Trace.Events), len(pipelined.Trace.Events))
	}
	for i := range blocking.Trace.Events {
		if blocking.Trace.Events[i] != pipelined.Trace.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v",
				i, blocking.Trace.Events[i], pipelined.Trace.Events[i])
		}
	}
	if blocking.Faults.DegradedRounds < 1 || blocking.Faults.Retries < 1 {
		t.Fatalf("plan did not exercise retry and degradation: %+v", blocking.Faults)
	}
}

// TestPipelineRepeatedRunsDeterministic: the pipelined engine itself is
// a golden function of (options, seed) — costs included, because the
// stage-B worker pool merges in slot order and overlap credits are
// computed from modeled (not wall-clock) segments.
func TestPipelineRepeatedRunsDeterministic(t *testing.T) {
	p, gamma, _ := testProblem(t, 14, 180, 0.5)
	run := func() *Result {
		o := baseOpts(p, gamma, 0)
		o.Tol = 0 // no reference optimum needed here
		o.MaxIter = 64
		o.K = 8
		o.EvalEvery = 16
		o.Pipeline = true
		return selfSolve(t, p, o)
	}
	a, b := run(), run()
	if a.Cost != b.Cost {
		t.Fatalf("pipelined costs differ across runs: %v vs %v", a.Cost, b.Cost)
	}
	requireBitIdentical(t, "pipeline-repeat", a, b)
}
