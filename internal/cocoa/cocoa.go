// Package cocoa implements ProxCoCoA, the communication-efficient
// primal-dual framework of Smith et al. (2015) the paper benchmarks
// against (Section 5.4), specialized to l1-regularized least squares.
//
// Structure (CoCoA+ with adding, aggregation gamma = 1, safe local
// subproblem parameter sigma' = K):
//
//   - the optimization variable w is partitioned by FEATURES across K
//     workers (the dual of RC-SFISTA's sample partition);
//   - every worker holds the shared prediction vector v = X^T w (one
//     entry per sample) and solves a local quadratic subproblem over
//     its own coordinates with randomized coordinate descent;
//   - one allreduce of the m-word local prediction deltas per outer
//     round updates v everywhere.
//
// Per round ProxCoCoA therefore moves O(m log P) words in one message
// round, versus RC-SFISTA's O(k d^2 log P) words per k updates — the
// trade the Figure 6 / Table 3 comparison measures.
package cocoa

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Options configures a ProxCoCoA solve.
type Options struct {
	// Lambda is the l1 penalty of Eq. 3.
	Lambda float64
	// Rounds bounds the number of outer (communication) rounds.
	Rounds int
	// LocalIters is the number of randomized coordinate descent steps
	// per worker per round; 0 means one full pass over the local
	// coordinates (the CoCoA default H = n_k).
	LocalIters int
	// SigmaPrime is the subproblem safety parameter sigma'; 0 selects
	// the safe "adding" default sigma' = K (number of workers).
	SigmaPrime float64
	// Tol is the relative objective error stop (needs FStar, as in
	// solver.Options).
	Tol, FStar float64
	// Seed drives the local coordinate sampling.
	Seed uint64
	// EvalEvery is the number of rounds between trace points (default 1).
	EvalEvery int
	// TraceName overrides the recorded series name.
	TraceName string
}

func (o Options) withDefaults() Options {
	if o.Rounds == 0 {
		o.Rounds = 200
	}
	if o.EvalEvery == 0 {
		o.EvalEvery = 1
	}
	if o.FStar == 0 {
		o.FStar = math.NaN()
	}
	if o.TraceName == "" {
		o.TraceName = "proxcocoa"
	}
	return o
}

// LocalData is one worker's feature block, shared with the rest of the
// repository through solvercore (the CSR row-split dual of the
// column-split LocalData).
type LocalData = solvercore.FeatureBlock

// Partition returns rank's feature block. xRows must be the CSR form
// of the global d x m matrix (rows = features); compute it once with
// x.ToCSR() and share across ranks.
var Partition = solvercore.FeaturePartition

// SolveContext runs ProxCoCoA on communicator c with this rank's
// feature block under a context (see solver.RCSFISTAContext for the
// cancellation contract). All ranks must pass identical opts. Rank 0's
// result carries the trace and the assembled global w.
func SolveContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*solver.Result, error) {
	opts = opts.withDefaults()
	if opts.Lambda < 0 {
		return nil, errors.New("cocoa: Lambda must be non-negative")
	}
	if local.Rows == nil || local.Rows.Cols != len(local.Y) {
		return nil, fmt.Errorf("cocoa: inconsistent local data")
	}
	nk := local.Rows.Rows // local coordinate count
	m := local.M
	sigma := opts.SigmaPrime
	if sigma <= 0 {
		sigma = float64(c.Size())
	}
	h := opts.LocalIters
	if h <= 0 {
		h = nk
	}
	cost := c.Cost()

	// Precompute ||a_i||^2 for each local coordinate (row of X).
	colNorm2 := make([]float64, nk)
	for i := 0; i < nk; i++ {
		_, vals := local.Rows.Row(i)
		var s float64
		for _, v := range vals {
			s += v * v
		}
		colNorm2[i] = s
	}
	cost.AddFlops(int64(2 * local.Rows.Nnz()))

	rec := solvercore.NewRecorder(opts.TraceName, c.Rank(), cost, c.Machine())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar
	e := &cocoaEngine{
		rec: rec, c: c, local: local, opts: opts,
		nk: nk, m: m, sigma: sigma, h: h,
		tau:      1 / float64(m), // smoothness of (1/2m)||v-y||^2 in v
		colNorm2: colNorm2,
		wLoc:     make([]float64, nk),
		v:        make([]float64, m),
		gradV:    make([]float64, m),
		delta:    make([]float64, nk),
		rng:      rng.New(opts.Seed ^ (uint64(c.Rank()+1) * 0x9e3779b97f4a7c15)),
	}
	rec.CheckpointAt(0, 0, e.evaluate())
	err := solvercore.Loop(solvercore.Spec{
		Ctx:  ctx,
		Comm: c,
		Rec:  rec,
		Fill: e,
		// Aggregate: v += sum_k u_k (gamma = 1, adding) — one in-place
		// m-word allreduce per round.
		Exchange: solvercore.SegmentedExchanger{C: c, Segs: []int{m}},
		Pass:     e,
		Stop:     e,
	})
	// Assemble the global w on every rank for the result. On
	// cancellation the ranks agreed to stop at the same round, so the
	// gather is still collective-safe and the partial W well-formed.
	res := rec.Finish(c.Allgather(e.wLoc))
	return res, err
}

// cocoaEngine is the BatchFiller, InnerPass and StopPolicy of one
// ProxCoCoA solve; one round = one outer (communication) round, and
// the exchanged batch is u = X_k^T delta, the local prediction change.
type cocoaEngine struct {
	rec   *solvercore.Recorder
	c     dist.Comm
	local LocalData
	opts  Options

	nk, m      int
	sigma, tau float64
	h          int
	colNorm2   []float64

	wLoc  []float64 // local block of w
	v     []float64 // shared predictions X^T w
	gradV []float64 // grad f(v) = (v - y)/m, per round
	delta []float64 // local subproblem variable
	rng   *rng.Rng
	sum   [1]float64 // evaluate's one-word allreduce buffer
}

// BatchLen is the m-word prediction-delta payload.
func (e *cocoaEngine) BatchLen() int { return e.m }

// Fill solves the round's local subproblem with randomized coordinate
// descent, writing u = X_k^T delta into buf:
//
//	min_d grad^T X_k^T d + (tau*sigma/2)||X_k^T d||^2
//	      + lambda ||w_k + d||_1.
//
// Workers with no local coordinates still participate in the
// collectives but have no subproblem to solve.
func (e *cocoaEngine) Fill(buf []float64) perf.Cost {
	var cost perf.Cost
	// grad f(v), fixed for the round's subproblem.
	for i := range e.gradV {
		e.gradV[i] = (e.v[i] - e.local.Y[i]) / float64(e.m)
	}
	cost.AddFlops(int64(2 * e.m))

	u := buf
	mat.Zero(e.delta)
	mat.Zero(u)
	steps := e.h
	if e.nk == 0 {
		steps = 0
	}
	for step := 0; step < steps; step++ {
		i := e.rng.Intn(e.nk)
		q := e.tau * e.sigma * e.colNorm2[i]
		if q <= 0 {
			continue
		}
		cols, vals := e.local.Rows.Row(i)
		var p float64
		for kk, j := range cols {
			p += vals[kk] * (e.gradV[j] + e.tau*e.sigma*u[j])
		}
		cst := e.wLoc[i] + e.delta[i]
		z := prox.SoftThreshold(q*cst-p, e.opts.Lambda) / q
		dd := z - cst
		if dd != 0 {
			e.delta[i] += dd
			for kk, j := range cols {
				u[j] += dd * vals[kk]
			}
		}
		cost.AddFlops(int64(6*len(cols) + 12))
	}
	return cost
}

// Process applies the aggregated prediction change and checkpoints.
func (e *cocoaEngine) Process(shared []float64) bool {
	cost := e.rec.Cost
	round := e.rec.Rounds
	mat.Axpy(1, shared, e.v, cost)
	mat.Axpy(1, e.delta, e.wLoc, cost)
	e.rec.Iter = round
	if round%e.opts.EvalEvery == 0 || round == e.opts.Rounds {
		if e.rec.CheckpointAt(round, round, e.evaluate()) {
			e.rec.Converged = true
			return true
		}
	}
	return false
}

// evaluate computes the global objective as instrumentation (cost
// rolled back): the local loss over the replicated predictions plus
// the l1 norm of the distributed w, allreduced on the engine's
// one-word buffer so the evaluation allocates nothing.
func (e *cocoaEngine) evaluate() float64 {
	cost := e.rec.Cost
	saved := *cost
	var loss float64
	for i, vi := range e.v {
		d := vi - e.local.Y[i]
		loss += d * d
	}
	e.sum[0] = mat.Nrm1(e.wLoc, nil)
	e.c.Allreduce(e.sum[:], dist.OpSum)
	l1 := e.sum[0]
	*cost = saved
	return loss/(2*float64(e.m)) + e.opts.Lambda*l1
}

// OnSkip never fires: the segmented exchange cannot lose a round.
func (e *cocoaEngine) OnSkip() bool { return true }

// Done gates on the round budget.
func (e *cocoaEngine) Done() bool { return e.rec.Rounds >= e.opts.Rounds }

// SolveDistributed partitions x by features across the world and runs
// ProxCoCoA on all ranks, returning rank 0's result with world-level
// critical-path costs (mirrors solver.SolveDistributed).
func SolveDistributed(w dist.World, x *sparse.CSC, y []float64, opts Options) (*solver.Result, error) {
	return SolveDistributedContext(context.Background(), w, x, y, opts)
}

// SolveDistributedContext is SolveDistributed under a context, with
// the partial-result contract of solver.SolveDistributedContext.
func SolveDistributedContext(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options) (*solver.Result, error) {
	xRows := x.ToCSR()
	return solvercore.RunWorld(w, func(c dist.Comm) (*solver.Result, error) {
		local := Partition(xRows, y, c.Size(), c.Rank())
		return SolveContext(ctx, c, local, opts)
	})
}
