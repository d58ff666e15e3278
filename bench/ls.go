package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// benchProcs is the world size of every solve. The reference box has 2
// cores; P is fixed (not nproc) so message and word counts stay
// comparable between machines.
const benchProcs = 2

// lipschitzSeed is the seed the serving layer and the experiment
// drivers use for solver.SampledLipschitz; the workloads keep it so a
// harness solve and a /fit of the same instance take the same step.
const lipschitzSeed = 777

// setupReps is how often a pass sets the workload up from scratch;
// setup_s is the median.
const setupReps = 3

// lsSpec defines a least-squares solve workload.
type lsSpec struct {
	Dataset  string
	M, D     int
	DataSeed uint64
	Backend  string
	K, S     int
	// GradMapTol is the stated accuracy every solve runs to.
	GradMapTol float64
	ActiveSet  bool
	Pipeline   bool
	Tier       string
	// ObjTol is the relative agreement required between the recomputed
	// objective and Result.FinalObj; 0 selects 1e-9. Tiered runs floor
	// their scalar reductions to f32 and need 1e-6.
	ObjTol float64
	// KeepLayout leaves the feature order alone for every seed. The i8
	// quantizer works on 64-value chunks of the payload, so it is not
	// equivariant under a feature permutation and the round count would
	// move with the seed.
	KeepLayout bool
}

// lsInstance is one set-up of a workload: the data and the options
// every solve of the pass uses, and what the set-up stages cost.
type lsInstance struct {
	spec *lsSpec
	prob *data.Problem
	opts solver.Options
	// warm is the untimed warm-up solve; every timed solve must
	// reproduce it bit for bit.
	warm               *solver.Result
	loadS, lipS, warmS float64
}

// permuteFeatures relabels feature i as perm[i] in place. LASSO is
// equivariant under it: the solution, every Gram entry and the round
// count are those of the original instance up to summation order,
// while the memory layout, packed-Gram positions and wire bytes change.
func permuteFeatures(x *sparse.CSC, perm []int) {
	for j := 0; j < x.Cols; j++ {
		rows, vals := x.Col(j)
		for i, r := range rows {
			rows[i] = perm[r]
		}
		sort.Sort(colEntries{rows, vals})
	}
}

type colEntries struct {
	rows []int
	vals []float64
}

func (c colEntries) Len() int           { return len(c.rows) }
func (c colEntries) Less(i, j int) bool { return c.rows[i] < c.rows[j] }
func (c colEntries) Swap(i, j int) {
	c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
}

// setup builds the instance from the seed and runs the warm-up solve.
func (s *lsSpec) setup(seed uint64) (*lsInstance, error) {
	in := &lsInstance{spec: s}
	t := time.Now()
	p, err := data.LoadWith(s.Dataset, s.M, s.D, s.DataSeed)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", s.Dataset, err)
	}
	in.loadS = time.Since(t).Seconds()
	if !s.KeepLayout {
		permuteFeatures(p.X, rng.New(seed).Perm(p.X.Rows))
	}
	in.prob = p

	o := solver.Defaults()
	o.Lambda = p.Lambda
	o.K, o.S = s.K, s.S
	o.GradMapTol = s.GradMapTol
	o.MaxIter = 20000
	o.ActiveSet, o.Pipeline, o.CompressTier = s.ActiveSet, s.Pipeline, s.Tier
	t = time.Now()
	o.Gamma = solver.GammaFromLipschitz(solver.SampledLipschitz(p.X, p.Y, o.B, 8, lipschitzSeed))
	in.lipS = time.Since(t).Seconds()
	in.opts = o

	t = time.Now()
	in.warm, _, _, err = in.solve(benchProcs, nil)
	in.warmS = time.Since(t).Seconds()
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return in, nil
}

func (in *lsInstance) setupSeconds() float64 { return in.loadS + in.lipS + in.warmS }

// solve runs one operation: build a world on the workload's backend
// and solve to GradMapTol on it. Users pay world construction per
// solve, so the clock covers it. With a clock the ranks'
// communicators are decorated and their stats returned.
func (in *lsInstance) solve(procs int, clock func() int64) (*solver.Result, []*commStats, time.Duration, error) {
	t := time.Now()
	w, err := dist.NewWorldOn(in.spec.Backend, procs, perf.Comet())
	if err != nil {
		return nil, nil, 0, err
	}
	var res *solver.Result
	var stats []*commStats
	if clock == nil {
		res, err = solver.SolveDistributedContext(context.Background(), w, in.prob.X, in.prob.Y, in.opts)
	} else {
		res, stats, err = tracedSolve(context.Background(), w, in.prob.X, in.prob.Y, in.opts, clock)
	}
	return res, stats, time.Since(t), err
}

// gradMapNorm is the proximal gradient mapping norm
// ||w - prox_gamma(w - gamma grad f(w))|| / gamma, zero exactly at
// optima: the solver's own stopping quantity, recomputed from outside.
func gradMapNorm(obj *prox.Objective, w []float64, gamma float64) float64 {
	g := make([]float64, len(w))
	obj.Gradient(g, w, nil)
	step := make([]float64, len(w))
	mat.AddScaled(step, w, -gamma, g, nil)
	obj.G.Apply(step, step, gamma, nil)
	mat.Sub(step, w, step, nil)
	return mat.Nrm2(step, nil) / gamma
}

// verifySolution checks a solve against the data from outside: the
// reported objective is the objective of the reported iterate, and the
// iterate meets the stated accuracy. It returns the recomputed
// gradient mapping norm.
func (in *lsInstance) verifySolution(res *solver.Result) (float64, error) {
	if !res.Converged {
		return 0, fmt.Errorf("not converged within %d updates", in.opts.MaxIter)
	}
	obj := prox.NewObjective(in.prob.X, in.prob.Y, prox.L1{Lambda: in.opts.Lambda})
	f := obj.F(res.W, nil)
	tol := in.spec.ObjTol
	if tol == 0 {
		tol = 1e-9
	}
	if math.Abs(f-res.FinalObj) > tol*math.Abs(f) {
		return 0, fmt.Errorf("FinalObj %.12g but F(W) = %.12g", res.FinalObj, f)
	}
	gm := gradMapNorm(obj, res.W, in.opts.Gamma)
	if !(gm <= 2*in.spec.GradMapTol) {
		return gm, fmt.Errorf("gradient mapping norm %.3g exceeds 2 x %.3g", gm, in.spec.GradMapTol)
	}
	return gm, nil
}

// sameSolve reports how b differs from a; "" when the two solves are
// the same bit for bit. The repo guarantees determinism at fixed P.
func sameSolve(a, b *solver.Result) string {
	switch {
	case a.Rounds != b.Rounds || a.Iters != b.Iters:
		return fmt.Sprintf("rounds/updates %d/%d, first solve %d/%d", b.Rounds, b.Iters, a.Rounds, a.Iters)
	case a.Cost != b.Cost:
		return fmt.Sprintf("cost %+v, first solve %+v", b.Cost, a.Cost)
	case math.Float64bits(a.FinalObj) != math.Float64bits(b.FinalObj):
		return fmt.Sprintf("FinalObj %.17g, first solve %.17g", b.FinalObj, a.FinalObj)
	}
	for i := range a.W {
		if math.Float64bits(a.W[i]) != math.Float64bits(b.W[i]) {
			return fmt.Sprintf("W[%d] differs from the first solve", i)
		}
	}
	return ""
}

// lsOp is one timed solve of the window.
type lsOp struct {
	res   *solver.Result
	stats []*commStats // nil for an undecorated solve
	start int64        // trace clock
	dur   time.Duration
	err   error
}

// runLS runs one pass of a least-squares workload: setupReps set-ups,
// each followed by its share of the window of timed solves, then
// verification of every solve.
// The traced pass alternates bare and decorated solves so the trace
// overhead is measured inside one process.
func runLS(w workload, seed uint64, window time.Duration, minOps int, traced bool, tr *tracer) (*report, error) {
	r := newReport(w.Name, traced)
	var in *lsInstance
	var setups, loads, lips []float64
	var ops []lsOp
	var mem memDelta
	var rates []float64 // solves per second of each window share
	// Each set-up is followed by its share of the window, so the timed
	// solves run on setupReps separately allocated copies of the data
	// and a slow stretch of the machine hits set-up and solves alike.
	for rep := 0; rep < setupReps; rep++ {
		var err error
		if in, err = w.ls.setup(seed); err != nil {
			return nil, err
		}
		setups = append(setups, in.setupSeconds())
		loads = append(loads, in.loadS)
		lips = append(lips, in.lipS)

		before := readMem()
		start, done := time.Now(), len(ops)
		for i := 0; i < minOps || time.Since(start) < window/setupReps; i++ {
			var clock func() int64
			if traced && i%2 == 1 {
				clock = tr.now
			}
			op := lsOp{start: tr.now()}
			op.res, op.stats, op.dur, op.err = in.solve(benchProcs, clock)
			ops = append(ops, op)
		}
		rates = append(rates, float64(len(ops)-done)/time.Since(start).Seconds())
		mem = mem.add(readMem().sub(before))
	}

	gm, warmErr := in.verifySolution(in.warm)
	if warmErr != nil {
		r.fail("warm-up solve: %v", warmErr)
	}
	var bare, decorated []float64 // solve times in ms
	for i, op := range ops {
		r.Attempted++
		switch {
		case op.err != nil:
			r.fail("solve %d: %v", i, op.err)
			continue
		case warmErr != nil:
			r.fail("solve %d: same result as the warm-up solve, which failed verification", i)
			continue
		}
		if diff := sameSolve(in.warm, op.res); diff != "" {
			r.fail("solve %d is not deterministic: %s", i, diff)
			continue
		}
		if op.stats == nil {
			bare = append(bare, op.dur.Seconds()*1e3)
		} else {
			decorated = append(decorated, op.dur.Seconds()*1e3)
		}
	}

	if !traced {
		r.setSample("op_p50_ms", bare)
		r.setSample("ops_per_s", rates)
		r.setSample("setup_s", setups)
		return r, nil
	}

	r.setSample("data.load_s", loads)
	r.set("data.nnz", float64(in.prob.X.Nnz()))
	r.setSample("solver.lipschitz_s", lips)
	r.set("solver.gradmap_final", gm)
	in.reportTraced(r, tr, ops, bare, decorated, mem, seed)
	return r, nil
}
