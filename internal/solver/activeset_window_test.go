package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// windowRedoProblem is redoTriggerProblem stepped slowly enough that
// the violation surfaces at the scan closing the 4-round window of
// rounds 1-4 (round 0 is scanned alone: the support leaves zero), so
// the window's rounds are fallible rounds 1-4 and its redo exchanges
// fallible rounds 5-8. B = 1 makes every batch the full Gram: a stale
// batch in the same layout is numerically the fresh one.
func windowRedoProblem() (func(Options) (*Result, error), Options) {
	X, Y, o := redoTriggerProblem()
	o.Gamma = 0.1
	o.MaxIter = 1200
	solve := func(o Options) (*Result, error) {
		return SolveDistributed(dist.NewWorld(2, perf.Comet()), X, Y, o)
	}
	return solve, o
}

// TestActiveSetWindowRedoUnderFaults drives the half of the protocol
// that only faults reach: a KKT violation found at the end of a
// multi-round window with one round of the window hard-dropped and one
// of the redo exchanges hard-dropped too (that redo round runs the
// stale batch in the pre-expansion layout). The result is exact to the
// dense solve, both recoveries are on record, and every redo exchange
// is charged as a round.
func TestActiveSetWindowRedoUnderFaults(t *testing.T) {
	solve, o := windowRedoProblem()
	dense, err := solve(o)
	if err != nil {
		t.Fatal(err)
	}
	o.ActiveSet = true
	o.Faults = &dist.FaultPlan{Seed: 1, Schedule: []dist.ScheduledFault{
		{Round: 3, Kind: dist.FaultDrop},
		{Round: 6, Kind: dist.FaultDrop},
	}}
	act, err := solve(o)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
		t.Fatalf("|F_active - F_dense| = %g > 1e-10", diff)
	}
	kinds := countEvents(act.Trace)
	if kinds["expand"] == 0 || kinds["degrade"] != 2 {
		t.Fatalf("want an expand and two degrade events, got %v", kinds)
	}
	redone := 0
	for _, ev := range act.Trace.Events {
		if ev.Kind != "expand" {
			continue
		}
		var viol, from, to, n int
		if _, err := fmt.Sscanf(ev.Detail, "KKT violation on %d screened coords: |A| %d -> %d, %d-round window redone",
			&viol, &from, &to, &n); err != nil {
			t.Fatalf("expand detail %q: %v", ev.Detail, err)
		}
		if n < 2 {
			t.Fatalf("violation surfaced in a %d-round window, want a multi-round one", n)
		}
		redone += n
	}
	// K = S = 1: one update per kept round, so the surplus is the redos.
	if act.Rounds != act.Iters+redone {
		t.Fatalf("rounds %d != %d updates + %d redo exchanges", act.Rounds, act.Iters, redone)
	}
}

// TestActiveSetWindowFaultSweep drops each of the first 14 fallible
// rounds in turn — before the window, inside it, on each redo exchange
// and after — transiently and for good: every plan lands on the dense
// optimum.
func TestActiveSetWindowFaultSweep(t *testing.T) {
	solve, o := windowRedoProblem()
	dense, err := solve(o)
	if err != nil {
		t.Fatal(err)
	}
	o.ActiveSet = true
	for round := 0; round < 14; round++ {
		for _, attempts := range []int{0, 1} {
			o.Faults = &dist.FaultPlan{Seed: 1, Schedule: []dist.ScheduledFault{
				{Round: round, Kind: dist.FaultDrop, Attempts: attempts},
			}}
			act, err := solve(o)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
				t.Fatalf("drop at round %d (attempts %d): |F_active - F_dense| = %g > 1e-10",
					round, attempts, diff)
			}
		}
	}
}

// windowProbe is the engine's stage D with a look at the screening
// state around every round.
type windowProbe struct {
	*engine
	t *testing.T
	// staleScans counts rounds that ran a stale batch in a layout other
	// than the working set; maxOpen is the longest window left open.
	staleScans, maxOpen int
}

func (p *windowProbe) Process(shared []float64) bool {
	e, as := p.engine, p.engine.as
	stale := e.rec.Faults.DegradedRounds != as.degSeen && !sameLayout(as.actGood, as.act)
	stop := e.Process(shared)
	if stale {
		p.staleScans++
		if as.sinceScan != 0 || as.scanGap != kktBaseGap {
			p.t.Errorf("round %d: stale layout left the window open (%d rounds since scan, gap %d)",
				e.rec.Rounds, as.sinceScan, as.scanGap)
		}
	}
	if as.sinceScan > p.maxOpen {
		p.maxOpen = as.sinceScan
	}
	for i, v := range e.wCurr {
		if v != 0 && as.pos[i] < 0 {
			p.t.Errorf("round %d: w[%d] = %g outside the working set", e.rec.Rounds, i, v)
		}
	}
	return stop
}

// TestActiveSetStaleLayoutForcesScan: round 0 is delivered on {0}; its
// scan admits coordinate 1 through the margin rule, so the working set
// becomes {0, 1}; round 1 is lost for good and hands back round 0's
// batch, laid out on {0}. That round must be scanned at once — three
// rounds ahead of the cadence — while the later drops, whose stale
// batch is laid out on the working set, ride inside ordinary windows.
func TestActiveSetStaleLayoutForcesScan(t *testing.T) {
	X, Y, o := redoTriggerProblem()
	o.Gamma = 0.1
	o.MaxIter = 1200
	// |g_2| is 0.094 at w0 and 0.0956 after round 0: a 0.095 threshold
	// admits coordinate 1 at the first scan, not before.
	o.ScreenMargin = 0.05
	c := dist.NewSelfComm(perf.Comet())
	dense, err := RCSFISTA(c, Partition(X, Y, 1, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	o.ActiveSet = true
	o.Faults = &dist.FaultPlan{Seed: 1, Schedule: []dist.ScheduledFault{
		{Round: 1, Kind: dist.FaultDrop},
		{Round: 7, Kind: dist.FaultDrop},
		{Round: 30, Kind: dist.FaultDrop},
	}}
	var probe *windowProbe
	act, err := runStages(dist.NewSelfComm(perf.Comet()), Partition(X, Y, 1, 0), o,
		func(e *engine) (solvercore.BatchFiller, solvercore.InnerPass) {
			probe = &windowProbe{engine: e, t: t}
			return e, probe
		})
	if err != nil {
		t.Fatal(err)
	}
	if act.Faults.DegradedRounds != 3 {
		t.Fatalf("want 3 degraded rounds, got %+v", act.Faults)
	}
	if probe.staleScans != 1 {
		t.Fatalf("%d rounds ran a stale layout, want exactly round 1", probe.staleScans)
	}
	if probe.maxOpen < kktBaseGap-1 {
		t.Fatalf("longest open window %d rounds: faults must not force a scan per round", probe.maxOpen)
	}
	if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
		t.Fatalf("|F_active - F_dense| = %g > 1e-10", diff)
	}
}

// TestActiveSetSkipCap: the skip cap abandons a solve whose network
// never delivers. A round is skipped only while no batch has ever
// arrived — afterwards a lost round degrades — so the cap can only fire
// before the first window opens, and the iterate it returns is the
// warm start, untouched. Once a single batch has arrived the same
// blackout degrades every round instead and the solve runs its budget
// out on that batch, scans included.
func TestActiveSetSkipCap(t *testing.T) {
	p, gamma, fstar := testProblem(t, 8, 80, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 15
	o.ActiveSet = true
	o.W0 = make([]float64, 8)
	o.W0[2], o.W0[5] = 0.25, -0.5
	o.Faults = &dist.FaultPlan{DropProb: 1, MaxRetries: -1}
	res := selfSolve(t, p, o)
	if res.Iters != 0 || res.Faults.SkippedRounds != o.MaxIter+1 || res.Faults.DegradedRounds != 0 {
		t.Fatalf("blackout from round 0: %d updates, %+v", res.Iters, res.Faults)
	}
	for i := range res.W {
		if res.W[i] != o.W0[i] {
			t.Fatalf("skip-cap exit moved W[%d]: %g -> %g", i, o.W0[i], res.W[i])
		}
	}

	// The same blackout starting at round 1.
	o.Faults = &dist.FaultPlan{}
	for r := 1; r <= o.MaxIter; r++ {
		o.Faults.Schedule = append(o.Faults.Schedule, dist.ScheduledFault{Round: r, Kind: dist.FaultDrop})
	}
	var probe *windowProbe
	res, err := runStages(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), o,
		func(e *engine) (solvercore.BatchFiller, solvercore.InnerPass) {
			probe = &windowProbe{engine: e, t: t}
			return e, probe
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.SkippedRounds != 0 || res.Iters != o.MaxIter {
		t.Fatalf("blackout after one batch must degrade, not skip: %d updates, %+v", res.Iters, res.Faults)
	}
	if n := len(probe.as.winBases); n != 0 {
		t.Fatalf("solve returned with a %d-round window uncertified", n)
	}
}
