package solver

import (
	"math"
	"runtime"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// countEvents tallies trace events by kind.
func countEvents(s *trace.Series) map[string]int {
	out := map[string]int{}
	for _, e := range s.Events {
		out[e.Kind]++
	}
	return out
}

// TestFaultDegradationConverges is the acceptance scenario: on P = 8
// with a plan injecting one hard-dropped round (all retries exhausted)
// and two straggler rounds, RC-SFISTA must complete via stale-Hessian
// degradation and land within 1e-6 relative objective of the fault-free
// run, with every fault and recovery decision recorded in the trace.
func TestFaultDegradationConverges(t *testing.T) {
	p, gamma, fstar := testProblem(t, 16, 240, 0.6)
	base := baseOpts(p, gamma, fstar)
	base.Tol = 0
	base.MaxIter = 2500
	base.EvalEvery = 50

	run := func(plan *dist.FaultPlan) *Result {
		o := base
		o.Faults = plan
		w := dist.NewWorld(8, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed: %v", err)
		}
		return res
	}

	clean := run(nil)
	plan := &dist.FaultPlan{
		Seed: 11,
		Schedule: []dist.ScheduledFault{
			{Round: 5, Kind: dist.FaultDrop}, // Attempts <= 0: hard failure
			{Round: 9, Kind: dist.FaultStraggler, Rank: 3},
			{Round: 14, Kind: dist.FaultStraggler, Rank: 6, DelaySec: 2e-3},
		},
	}
	faulty := run(plan)

	if faulty.Faults.FailedRounds < 1 || faulty.Faults.DegradedRounds < 1 {
		t.Fatalf("degradation did not engage: %+v", faulty.Faults)
	}
	if faulty.Faults.SkippedRounds != 0 {
		t.Fatalf("round 5 failed after batches existed, must degrade not skip: %+v", faulty.Faults)
	}
	if faulty.Faults.Retries < 1 {
		t.Fatalf("hard drop must consume the retry budget: %+v", faulty.Faults)
	}
	if faulty.Faults.StallSec <= 0 {
		t.Fatalf("faults charged no stall: %+v", faulty.Faults)
	}
	if faulty.Cost.StallSec <= clean.Cost.StallSec {
		t.Fatal("critical-path cost does not reflect the injected stalls")
	}

	// Convergence despite the faults.
	if math.Abs(faulty.FinalObj-clean.FinalObj)/math.Abs(clean.FinalObj) > 1e-6 {
		t.Fatalf("faulty run drifted: obj %v vs clean %v (relerr %g/%g)",
			faulty.FinalObj, clean.FinalObj, faulty.FinalRelErr, clean.FinalRelErr)
	}

	// Trace must carry every fault and every recovery decision.
	kinds := countEvents(faulty.Trace)
	// Round 5 is attempted MaxRetries+1 = 2 times, both dropped.
	if kinds["drop"] != 2 {
		t.Fatalf("drop events = %d, want 2 (one per attempt): %v", kinds["drop"], kinds)
	}
	if kinds["straggler"] != 2 {
		t.Fatalf("straggler events = %d, want 2: %v", kinds["straggler"], kinds)
	}
	if kinds["degrade"] != 1 {
		t.Fatalf("degrade events = %d, want 1: %v", kinds["degrade"], kinds)
	}
	for _, e := range faulty.Trace.Events {
		if e.Kind == "degrade" && e.Round != 5 {
			t.Fatalf("degrade recorded at round %d, want 5", e.Round)
		}
	}
	if len(clean.Trace.Events) != 0 {
		t.Fatalf("clean run recorded events: %+v", clean.Trace.Events)
	}
}

// TestZeroFaultPlanBitIdentical pins the transparency requirement: a
// non-nil but empty FaultPlan produces bit-identical iterates, traces
// and per-rank costs to running without a plan at all.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	p, gamma, fstar := testProblem(t, 14, 160, 0.5)
	run := func(plan *dist.FaultPlan) (*Result, []perf.Cost) {
		o := baseOpts(p, gamma, fstar)
		o.Tol = 0
		o.MaxIter = 120
		o.K = 3
		o.EvalEvery = 12
		o.Faults = plan
		w := dist.NewWorld(4, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed: %v", err)
		}
		costs := make([]perf.Cost, w.Size())
		for r := range costs {
			costs[r] = w.RankCost(r)
		}
		return res, costs
	}
	bare, bareCosts := run(nil)
	wrapped, wrappedCosts := run(&dist.FaultPlan{})
	requireBitIdentical(t, "zero-plan", bare, wrapped)
	for r := range bareCosts {
		if bareCosts[r] != wrappedCosts[r] {
			t.Fatalf("rank %d cost differs: %v vs %v", r, bareCosts[r], wrappedCosts[r])
		}
	}
	if wrapped.Faults != (FaultStats{}) {
		t.Fatalf("zero plan produced fault stats: %+v", wrapped.Faults)
	}
	if len(wrapped.Trace.Events) != 0 {
		t.Fatalf("zero plan recorded events: %+v", wrapped.Trace.Events)
	}
}

// TestFaultGoldenDeterminism: identical seed and identical FaultPlan
// give bit-identical results, traces and per-rank costs across repeated
// runs and across GOMAXPROCS settings.
func TestFaultGoldenDeterminism(t *testing.T) {
	p, gamma, fstar := testProblem(t, 12, 120, 0.5)
	plan := &dist.FaultPlan{
		Seed:          3,
		DropProb:      0.05,
		StragglerProb: 0.1,
		Schedule: []dist.ScheduledFault{
			{Round: 2, Kind: dist.FaultDrop},
			{Round: 6, Kind: dist.FaultCorrupt, Rank: 1, Attempts: 1},
		},
	}
	run := func() (*Result, []perf.Cost) {
		o := baseOpts(p, gamma, fstar)
		o.Tol = 0
		o.MaxIter = 80
		o.K = 4
		o.EvalEvery = 8
		o.Faults = plan
		w := dist.NewWorld(8, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed: %v", err)
		}
		costs := make([]perf.Cost, w.Size())
		for r := range costs {
			costs[r] = w.RankCost(r)
		}
		return res, costs
	}

	type golden struct {
		res   *Result
		costs []perf.Cost
	}
	var runs []golden
	for _, procs := range []int{0, 1, 8, 0} { // 0 = leave as-is
		if procs > 0 {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
		}
		res, costs := run()
		runs = append(runs, golden{res, costs})
	}
	ref := runs[0]
	if len(ref.res.Trace.Events) == 0 {
		t.Fatal("plan injected nothing; determinism test is vacuous")
	}
	for i, g := range runs[1:] {
		requireBitIdentical(t, "golden", ref.res, g.res)
		if ref.res.Faults != g.res.Faults {
			t.Fatalf("run %d fault stats differ: %+v vs %+v", i+1, ref.res.Faults, g.res.Faults)
		}
		if len(ref.res.Trace.Events) != len(g.res.Trace.Events) {
			t.Fatalf("run %d event counts differ", i+1)
		}
		for j := range ref.res.Trace.Events {
			if ref.res.Trace.Events[j] != g.res.Trace.Events[j] {
				t.Fatalf("run %d event %d differs: %+v vs %+v",
					i+1, j, ref.res.Trace.Events[j], g.res.Trace.Events[j])
			}
		}
		for r := range ref.costs {
			if ref.costs[r] != g.costs[r] {
				t.Fatalf("run %d rank %d cost differs: %v vs %v", i+1, r, ref.costs[r], g.costs[r])
			}
		}
	}
}

// TestFaultRetryRecovers: a transient drop (first attempt only) must be
// absorbed by the retry path with no degradation.
func TestFaultRetryRecovers(t *testing.T) {
	p, gamma, fstar := testProblem(t, 10, 100, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 30
	o.Faults = &dist.FaultPlan{Schedule: []dist.ScheduledFault{
		{Round: 3, Kind: dist.FaultDrop, Attempts: 1},
	}}
	res := selfSolve(t, p, o)
	if res.Faults.Retries != 1 || res.Faults.FailedRounds != 0 || res.Faults.DegradedRounds != 0 {
		t.Fatalf("transient drop not absorbed by retry: %+v", res.Faults)
	}
	kinds := countEvents(res.Trace)
	if kinds["drop"] != 1 || kinds["retry-ok"] != 1 {
		t.Fatalf("retry recovery not traced: %v", kinds)
	}
}

// TestFaultSkipBeforeFirstBatch: rounds lost before any batch has ever
// arrived cannot degrade (there is no stale Hessian) and are skipped.
func TestFaultSkipBeforeFirstBatch(t *testing.T) {
	p, gamma, fstar := testProblem(t, 10, 100, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 40
	o.Faults = &dist.FaultPlan{Schedule: []dist.ScheduledFault{
		{Round: 0, Kind: dist.FaultDrop},
		{Round: 1, Kind: dist.FaultDrop},
	}}
	res := selfSolve(t, p, o)
	if res.Faults.SkippedRounds != 2 || res.Faults.DegradedRounds != 0 {
		t.Fatalf("early failures must skip, not degrade: %+v", res.Faults)
	}
	if res.Iters != o.MaxIter {
		t.Fatalf("solver did not resume after the outage: %d iters", res.Iters)
	}
	kinds := countEvents(res.Trace)
	if kinds["skip"] != 2 {
		t.Fatalf("skips not traced: %v", kinds)
	}
}

// TestFaultTotalBlackoutTerminates: a network that never heals must not
// hang the solver — the skip cap bounds the failed-round loop.
func TestFaultTotalBlackoutTerminates(t *testing.T) {
	p, gamma, fstar := testProblem(t, 8, 80, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 15
	o.Faults = &dist.FaultPlan{DropProb: 1, MaxRetries: -1} // no retries: fail fast
	res := selfSolve(t, p, o)
	if res.Iters != 0 {
		t.Fatalf("updates happened during a total blackout: %d", res.Iters)
	}
	if res.Converged {
		t.Fatal("blackout run claims convergence")
	}
	if res.Faults.SkippedRounds != o.MaxIter+1 {
		t.Fatalf("skip cap did not bound the loop: %+v", res.Faults)
	}
}

// TestFaultCrashOutage: a crash takes down a window of rounds; the
// solver degrades through it and the crashed rank pays the restart.
func TestFaultCrashOutage(t *testing.T) {
	p, gamma, fstar := testProblem(t, 12, 120, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 60
	o.Faults = &dist.FaultPlan{
		Crash: &dist.Crash{Rank: 2, Round: 4, Outage: 3, RestartSec: 0.1},
	}
	w := dist.NewWorld(4, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, o)
	if err != nil {
		t.Fatalf("SolveDistributed: %v", err)
	}
	if res.Faults.FailedRounds != 3 || res.Faults.DegradedRounds != 3 {
		t.Fatalf("outage not absorbed by degradation: %+v", res.Faults)
	}
	if res.Iters != o.MaxIter {
		t.Fatalf("solver did not complete through the outage: %d iters", res.Iters)
	}
	if w.RankCost(2).StallSec <= w.RankCost(0).StallSec {
		t.Fatal("crashed rank did not pay the restart stall")
	}
	kinds := countEvents(res.Trace)
	if kinds["crash"] == 0 || kinds["degrade"] != 3 {
		t.Fatalf("crash/degrade events missing: %v", kinds)
	}
}

// TestFaultOptionsValidation: bad resilience knobs are rejected.
func TestFaultOptionsValidation(t *testing.T) {
	p, gamma, fstar := testProblem(t, 8, 80, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Faults = &dist.FaultPlan{DropProb: 2}
	c := dist.NewSelfComm(perf.Comet())
	if _, err := RCSFISTA(c, Partition(p.X, p.Y, 1, 0), o); err == nil {
		t.Fatal("invalid FaultPlan accepted")
	}
	o.Faults = &dist.FaultPlan{TimeoutSec: math.Inf(1)}
	if _, err := RCSFISTA(c, Partition(p.X, p.Y, 1, 0), o); err == nil {
		t.Fatal("infinite TimeoutSec accepted")
	}
}
