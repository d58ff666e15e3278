package solver

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// support returns the nonzero pattern of w.
func support(w []float64) []int {
	var s []int
	for i, v := range w {
		if v != 0 {
			s = append(s, i)
		}
	}
	return s
}

func sameSupport(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestActiveSetMatchesDense is the correctness property of the
// screening engine: across rank counts and both gradient estimators, the active-set run must land on the same
// optimum as the dense run — final objective within 1e-10 and the
// identical support — while shipping strictly fewer words.
func TestActiveSetMatchesDense(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 24, M: 300, Density: 0.3, TrueNnz: 5, Lambda: 0.15, Seed: 11, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	base := Defaults()
	base.Lambda = p.Lambda
	base.Gamma = GammaFromLipschitz(l)
	base.MaxIter = 1500
	base.B = 0.3
	base.K = 2
	base.S = 2
	base.EvalEvery = 20

	solve := func(procs int, o Options) *Result {
		t.Helper()
		if procs == 1 {
			c := dist.NewSelfComm(perf.Comet())
			res, err := RCSFISTA(c, Partition(p.X, p.Y, 1, 0), o)
			if err != nil {
				t.Fatalf("RCSFISTA: %v", err)
			}
			return res
		}
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatalf("SolveDistributed(P=%d): %v", procs, err)
		}
		return res
	}

	for _, vr := range []bool{true, false} {
		o := base
		o.VarianceReduced = vr
		if !vr {
			// The plain subsampled estimator converges only to a noise
			// ball; run the non-VR leg deterministically so the 1e-10
			// agreement bound is meaningful.
			o.B = 1
		}
		dense := solve(1, o)
		dsupp := support(dense.W)
		if len(dsupp) == 0 || len(dsupp) == 24 {
			t.Fatalf("degenerate dense support %d/24 (VR=%v)", len(dsupp), vr)
		}
		for _, procs := range []int{1, 4, 8} {
			ao := o
			ao.ActiveSet = true
			act := solve(procs, ao)
			if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
				t.Fatalf("P=%d VR=%v: |F_active - F_dense| = %g > 1e-10", procs, vr, diff)
			}
			if !sameSupport(support(act.W), dsupp) {
				t.Fatalf("P=%d VR=%v: support %v != dense %v", procs, vr, support(act.W), dsupp)
			}
		}
	}
}

// TestActiveSetShipsFewerWords compares like for like: same rank
// count, same loop, screening on vs off. The reduced slots plus the
// scans' exact-gradient collectives must come out strictly cheaper in
// words on a sparse problem.
func TestActiveSetShipsFewerWords(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 32, M: 400, Density: 0.2, TrueNnz: 4, Lambda: 0.2, Seed: 3, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(l)
	o.MaxIter = 600
	o.B = 0.25
	o.EvalEvery = 10
	const procs = 4
	run := func(active bool) *Result {
		oo := o
		oo.ActiveSet = active
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, oo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense, act := run(false), run(true)
	if act.Cost.Words >= dense.Cost.Words {
		t.Fatalf("screening shipped %d words, dense %d", act.Cost.Words, dense.Cost.Words)
	}
	// The trace must expose the working-set trajectory.
	var sawActive bool
	for _, pt := range act.Trace.Points {
		if pt.Active > 0 {
			sawActive = true
			if pt.Active > 32 {
				t.Fatalf("recorded |A| = %d > d", pt.Active)
			}
		}
	}
	if !sawActive {
		t.Fatal("no trace point recorded a working-set size")
	}
	for _, pt := range dense.Trace.Points {
		if pt.Active != 0 {
			t.Fatalf("dense run recorded |A| = %d", pt.Active)
		}
	}
}

// TestActiveSetFaultPlan runs the screening engine through the
// retry/degrade machinery: a transient drop, a hard drop that degrades
// to the stale batch (whose wire layout the engine must look up from
// the fill that produced it), and a straggler. The run must still land
// on the dense optimum.
func TestActiveSetFaultPlan(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 20, M: 240, Density: 0.3, TrueNnz: 4, Lambda: 0.15, Seed: 5, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(l)
	o.MaxIter = 1200
	o.B = 0.3
	o.EvalEvery = 10
	const procs = 4
	solve := func(o Options) *Result {
		t.Helper()
		w := dist.NewWorld(procs, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := solve(o)
	ao := o
	ao.ActiveSet = true
	ao.Faults = &dist.FaultPlan{
		Seed: 9,
		Schedule: []dist.ScheduledFault{
			{Round: 1, Kind: dist.FaultDrop, Attempts: 1},
			{Round: 4, Kind: dist.FaultDrop},
			{Round: 6, Kind: dist.FaultStraggler, Rank: 1, DelaySec: 1e-3},
		},
	}
	act := solve(ao)
	if act.Faults.DegradedRounds == 0 {
		t.Fatal("fault plan injected no degraded round")
	}
	if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
		t.Fatalf("|F_active_faulty - F_dense| = %g > 1e-10", diff)
	}
}

// redoTriggerProblem is a 2x2 instance with a deterministic KKT
// re-expansion: two correlated features, coordinate 2 screened at w0
// (its gradient sits just inside lambda) but pushed past lambda once
// coordinate 1 grows. With the returned step 1/lambda_max(Q) the very
// first round crosses; a smaller Gamma moves the crossing inside a
// multi-round window.
func redoTriggerProblem() (*sparse.CSC, []float64, Options) {
	// Q = (1/m) X X^T = [[1, -0.8], [-0.8, 1]], c = (1/m) X y with
	// c1 = lambda + delta (active at w0), c2 = lambda - 0.3*delta
	// (screened at w0). As w1 -> delta/Q11, g2 = Q21 w1 - c2 crosses
	// -lambda: a violation on a screened coordinate.
	const lambda, delta = 0.1, 0.02
	sqrt2 := math.Sqrt(2.0)
	x10, x11 := sqrt2, -1.6/sqrt2
	x21 := math.Sqrt(2 - x11*x11)
	X := &sparse.CSC{
		Rows:   2,
		Cols:   2,
		ColPtr: []int{0, 2, 3},
		RowIdx: []int{0, 1, 1},
		Val:    []float64{x10, x11, x21},
	}
	c1, c2 := lambda+delta, lambda-0.3*delta
	// Solve X y = 2c by forward substitution (X is lower triangular).
	y1 := 2 * c1 / x10
	y2 := (2*c2 - x11*y1) / x21

	o := Defaults()
	o.Lambda = lambda
	o.Gamma = 1 / 1.8 // 1/lambda_max(Q)
	o.MaxIter = 400
	o.B = 1
	o.VarianceReduced = false
	o.EvalEvery = 1
	o.ScreenMargin = 1e-9
	return X, []float64{y1, y2}, o
}

// TestActiveSetRedoTrigger runs redoTriggerProblem: the exact scan must
// catch the violation, rewind, expand the working set and redo the
// round, and the run must still match the dense solve.
func TestActiveSetRedoTrigger(t *testing.T) {
	X, Y, o := redoTriggerProblem()

	c := dist.NewSelfComm(perf.Comet())
	local := Partition(X, Y, 1, 0)
	dense, err := RCSFISTA(c, local, o)
	if err != nil {
		t.Fatal(err)
	}

	ao := o
	ao.ActiveSet = true
	c2c := dist.NewSelfComm(perf.Comet())
	act, err := RCSFISTA(c2c, Partition(X, Y, 1, 0), ao)
	if err != nil {
		t.Fatal(err)
	}
	var expands int
	for _, ev := range act.Trace.Events {
		if ev.Kind == "expand" {
			expands++
		}
	}
	if expands == 0 {
		t.Fatalf("no re-expansion event recorded; events: %+v", act.Trace.Events)
	}
	if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
		t.Fatalf("|F_active - F_dense| = %g > 1e-10 after redo", diff)
	}
	if !sameSupport(support(act.W), support(dense.W)) {
		t.Fatalf("support %v != dense %v", support(act.W), support(dense.W))
	}
	// The redo consumes extra rounds; they must be charged, not hidden.
	if act.Rounds <= expands {
		t.Fatalf("rounds %d do not include the %d redo exchanges", act.Rounds, expands)
	}
}

// TestActiveSetRewindRetakesExactState: in the redo configuration, the
// exact state taken after a window's update must not answer for the
// iterate rewindActive restores. After the rewind the KKT gradient and
// the data-pass objective are bit for bit the ones taken at that
// iterate before the update.
func TestActiveSetRewindRetakesExactState(t *testing.T) {
	X, Y, o := redoTriggerProblem()
	o.ActiveSet = true
	e, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(X, Y, 1, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	e.initActiveSet()
	mark := e.markActive()
	g0 := mat.Clone(e.exact(&e.kktEF, false))
	f0 := e.evaluate(true)
	buf := make([]float64, e.BatchLen())
	e.Fill(buf)
	fr := e.as.filled
	h, r := e.slotView(buf, 0, len(fr.act))
	e.updateActive(h, r, fr.act)
	if g1 := e.exact(&e.kktEF, false); sameBits(g1, g0) || e.evaluate(true) == f0 {
		t.Fatal("the update moved neither ∇f nor F")
	}
	e.rewindActive(mark)
	if g := e.exact(&e.kktEF, false); !sameBits(g, g0) {
		t.Errorf("∇f after the rewind %v, want %v, the state at the restored iterate", g, g0)
	}
	if f := e.evaluate(true); math.Float64bits(f) != math.Float64bits(f0) {
		t.Errorf("F after the rewind %.17g, want %.17g", f, f0)
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestActiveSetOptionValidation pins the configuration surface.
func TestActiveSetOptionValidation(t *testing.T) {
	base := Defaults()
	base.Gamma = 1
	base.ActiveSet = true

	o := base
	o.Lambda = 0
	if err := o.Validate(); err == nil {
		t.Fatal("ActiveSet with Lambda=0 validated")
	}
	o = base
	o.Reg = prox.L2Squared{Lambda: 1}
	if err := o.Validate(); err == nil {
		t.Fatal("ActiveSet with non-l1 regularizer validated")
	}
	o = base
	o.ScreenMargin = 1.5
	if err := o.Validate(); err == nil {
		t.Fatal("ScreenMargin out of [0,1) validated")
	}
	o = base
	if err := o.Validate(); err != nil {
		t.Fatalf("valid ActiveSet config rejected: %v", err)
	}
	if got := o.withDefaults().ScreenMargin; got != 0.1 {
		t.Fatalf("default ScreenMargin = %g, want 0.1", got)
	}
	// One screening protocol: a FaultPlan is accepted next to ActiveSet
	// and moves no default, and there is no scan-cadence option to set.
	base.FStar = 1 // NaN, the default, defeats DeepEqual
	o = base
	o.Faults = &dist.FaultPlan{DropProb: 0.1}
	if err := o.Validate(); err != nil {
		t.Fatalf("ActiveSet + Faults rejected: %v", err)
	}
	want := base.withDefaults()
	want.Faults = o.Faults
	if got := o.withDefaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Faults moved a default under ActiveSet:\n got %+v\nwant %+v", got, want)
	}
	typ := reflect.TypeOf(Options{})
	if typ.NumField() != 21 {
		t.Fatalf("Options has %d fields, want 21", typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; strings.Contains(name, "KKT") {
			t.Fatalf("Options.%s: the scan cadence is not an option", name)
		}
	}
}

// TestActiveSetCSVColumn: the working-set size flows through to the
// long-format CSV export.
func TestActiveSetCSVColumn(t *testing.T) {
	s := &trace.Series{Name: "x"}
	s.Append(trace.Point{Iter: 1, Round: 1, Obj: 1, Active: 7})
	out := trace.SeriesCSV([]*trace.Series{s})
	want := "series,iter,round,obj,relerr,model_sec,wall_sec,active\n"
	if len(out) < len(want) || out[:len(want)] != want {
		t.Fatalf("CSV header = %q", out[:len(want)])
	}
	if out[len(out)-2] != '7' {
		t.Fatalf("CSV row missing active column: %q", out)
	}
}
