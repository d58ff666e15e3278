package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// LocalData is one rank's column (sample) block of the global problem,
// the Figure 1 data distribution: X is partitioned column-wise, y
// row-wise. It moved to solvercore with the shared runtime.
type LocalData = solvercore.LocalData

// Partition returns rank's contiguous column block of (x, y) for a
// world of the given size.
var Partition = solvercore.Partition

// RCSFISTA runs Algorithm 5 on communicator c with this rank's local
// data. Every rank must call it with identical opts. The returned
// Result carries this rank's cost; rank 0's Result carries the trace.
//
// Structure per communication round (Figure 1):
//
//	stage A: draw k sample index sets from the shared seed (no comm);
//	stage B: compute k local partial (H_j, R_j) Gram instances,
//	         concurrently across slots (disjoint buffer regions);
//	stage C: ONE allreduce of the batch — k*(d(d+1)/2 + d) words, each
//	         slot the packed upper triangle of H_j followed by R_j;
//	stage D: k*S local solution updates, S per Hessian instance.
//
// SFISTA is the k=1, S=1 special case; deterministic distributed FISTA
// is additionally b=1.
func RCSFISTA(c dist.Comm, local LocalData, opts Options) (*Result, error) {
	return RCSFISTAContext(context.Background(), c, local, opts)
}

// RCSFISTAContext is RCSFISTA under a context. Cancellation is
// cooperative and collective: the ranks agree on it at a round
// boundary (all leave at the same round, no collective left in
// flight), so it takes effect within one round. On cancellation both
// return values are non-nil: the Result is a well-formed partial state
// — last checkpointed objective, counters, trace so far — alongside
// the context's error.
func RCSFISTAContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*Result, error) {
	e, err := newEngine(c, local, opts)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, e, e, !e.opts.ActiveSet)
}

// run drives the solve with the given stage A/B filler and stage D
// pass on solvercore.PipelinedLoop when pipelined, else on the blocking
// solvercore.Loop. Production passes the engine for both stages and
// runs screening blocking — a KKT scan can move the working set a
// speculative fill was laid out on — and everything else pipelined;
// both loops charge and record identically, so the choice moves wall
// time only. Tests plug reference stages in here and run both loops.
func (e *engine) run(ctx context.Context, fill solvercore.BatchFiller, pass solvercore.InnerPass, pipelined bool) (*Result, error) {
	opts := e.opts
	if pipelined && opts.ActiveSet {
		panic("solver: the pipelined loop cannot run under ActiveSet")
	}
	e.start()
	if opts.W0 != nil && e.gradMapStop {
		// Warm-start fast path: the initial snapshot refresh evaluated
		// the exact gradient mapping at W0 and it already satisfies
		// GradMapTol, so the solve finishes before its first
		// communication round — what makes neighboring-lambda warm
		// starts in the serving layer nearly free. Cold starts (W0 ==
		// nil) never take this path; the gradient mapping is a shared
		// pure function of allreduced state, so all ranks exit together.
		e.checkpoint(true)
		e.rec.Converged = true
		return e.finish(), nil
	}
	// A cold start's verdict at w = 0 is not a stop: the first refresh in
	// the loop decides afresh, so gradMapStop holds only right after a
	// refresh whose own norm met GradMapTol, at the W the solve returns.
	e.gradMapStop = false
	if opts.ActiveSet {
		e.initActiveSet()
	}
	e.checkpoint(false)
	loop := solvercore.Loop
	if pipelined {
		loop = solvercore.PipelinedLoop
	}
	err := loop(solvercore.Spec{
		Ctx:      ctx,
		Comm:     e.c,
		Rec:      e.rec,
		Fill:     fill,
		Exchange: e.exch,
		Pass:     pass,
		Stop:     e,
	})
	if err == nil && !e.rec.Converged && e.sinceEval != 0 {
		e.rec.Converged = e.checkpoint(true)
	}
	return e.finish(), err
}

// SFISTA runs the k=1, S=1 stochastic variance-reduced algorithm
// (Algorithms 3/4) — RC-SFISTA without iteration-overlapping or reuse.
func SFISTA(c dist.Comm, local LocalData, opts Options) (*Result, error) {
	return SFISTAContext(context.Background(), c, local, opts)
}

// SFISTAContext is SFISTA under a context (see RCSFISTAContext).
func SFISTAContext(ctx context.Context, c dist.Comm, local LocalData, opts Options) (*Result, error) {
	opts.K, opts.S = 1, 1
	if opts.TraceName == "" {
		opts.TraceName = "sfista"
	}
	return RCSFISTAContext(ctx, c, local, opts)
}

// engine holds the run state of one rank. It plugs into the solvercore
// loops as the BatchFiller (stages A and B), the direct-form InnerPass
// (stage D), the StopPolicy and the Speculator; stage C is the exch
// TieredExchanger. Bookkeeping lives in rec.
type engine struct {
	c     dist.Comm
	local LocalData
	opts  Options
	rec   *solvercore.Recorder

	d, m, mbar int
	gamma      float64
	reg        prox.Operator
	// scr is reg's screening side; non-nil whenever reg implements
	// prox.Screener (Validate guarantees it under ActiveSet).
	scr prox.Screener
	// sampler draws Hessian slot h's global sample set (stage A).
	sampler solvercore.StreamSampler

	wPrev, wCurr, v, grad, tmp []float64
	t                          float64
	hIdx                       int
	sinceSnap, sinceEval       int
	// wVer versions wCurr: every write to it (update, updateActive,
	// rewindActive) bumps it, and ex, the memoised exact state, is keyed
	// on it (rcsfista_eval.go). Not rec.Iter: a rewind returns to an
	// Iter whose iterate then differs.
	wVer int
	ex   exactState

	// Stage-A/B state kept across rounds: each slot's global sample
	// draw and its local indices, each slot's private fill cost, and the
	// worker-pool semaphore (remade only if GOMAXPROCS moved). Slots fill
	// concurrently, so each owns its buffers.
	slotDraw  [][]int
	slotCols  [][]int
	fillCosts []perf.Cost
	fillSem   chan struct{}

	// Variance reduction state.
	wSnap    []float64
	fullGrad []float64

	gradMapStop bool

	// Tiered compression state (Options.CompressTier, see tiering.go).
	// gradEF/kktEF are the per-site error-feedback residual streams of
	// the stage-A gradient refresh and the KKT full-gradient scan, the
	// streams an exact take reduces on. The auto policy's tightening
	// signal is ex.norm, derived from allreduced state so all ranks agree.
	tiers  tierConfig
	gradEF solvercore.EFStream
	kktEF  solvercore.EFStream
	// Objective-stagnation ratchet of the auto policy (tierProgress):
	// best evaluated objective, evaluations since it improved, and the
	// monotone cap on the loosest selectable rung.
	tierBestObj float64
	tierStall   int
	tierCap     dist.Tier
	// fillsTri says the solve fills the resident least-squares triple
	// before round 0 (holdsTriple); tri is that triple once filled, nil
	// before, which the objective and the snapshot read
	// (rcsfista_eval.go).
	fillsTri bool
	tri      *Triple

	// as is the dynamic-screening state (Options.ActiveSet); nil runs
	// the dense path bit-identically to the goldens.
	as *activeState
	// exch is the one stage-C exchanger instance of the run: the batch
	// ships at the tier tierAt picks per round (f64 when tiers are off,
	// where it is a plain allreduce of the untouched batch), through the
	// retry/degrade/skip machine when a FaultPlan is injected. It must
	// be a singleton: it carries the last-good batch and the
	// error-feedback residual across rounds, and the re-expansion redo
	// exchange shares it with the Loop.
	exch *solvercore.TieredExchanger
}

// newEngine validates one rank's solve inputs — the options (defaults
// applied), the local block, the wire tiers against what c can carry —
// and builds its run state.
func newEngine(c dist.Comm, local LocalData, opts Options) (*engine, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if local.X == nil || local.X.Cols != len(local.Y) {
		return nil, fmt.Errorf("solver: inconsistent local data")
	}
	if gl, ok := opts.Reg.(prox.GroupL2); ok {
		if err := gl.Check(local.X.Rows); err != nil {
			return nil, err
		}
	}
	tiers, err := parseTierConfig(opts.CompressTier)
	if err != nil {
		return nil, err
	}
	if err := validateTierSupport(c, tiers); err != nil {
		return nil, err
	}
	d := local.X.Rows
	m := local.MGlobal
	mbar := sampleSize(opts.B, m)
	name := opts.TraceName
	if name == "" {
		name = fmt.Sprintf("rcsfista-k%d-s%d", opts.K, opts.S)
	}
	e := &engine{
		c: c, local: local, opts: opts,
		d: d, m: m, mbar: mbar,
		gamma: opts.Gamma,
		reg:   opts.Reg,
		sampler: solvercore.StreamSampler{
			Src: rng.NewSource(opts.Seed), Epoch: 1, N: m, Draw: mbar, FullWhenSaturated: true,
		},
		wPrev: make([]float64, d),
		wCurr: make([]float64, d),
		v:     make([]float64, d),
		grad:  make([]float64, d),
		tmp:   make([]float64, d),
		t:     1,

		slotDraw:  make([][]int, opts.K),
		slotCols:  make([][]int, opts.K),
		fillCosts: make([]perf.Cost, opts.K),

		ex:          exactState{ver: -1, grad: make([]float64, d), norm: math.Inf(1), loss: math.NaN()},
		tiers:       tiers,
		tierBestObj: math.Inf(1),
		tierCap:     dist.TierI8,
	}
	if s, ok := opts.Reg.(prox.Screener); ok {
		e.scr = s
	}
	e.fillsTri = holdsTriple(&opts, c.Size())
	if opts.W0 != nil {
		if len(opts.W0) != d {
			panic("solver: W0 length mismatch")
		}
		copy(e.wCurr, opts.W0)
		copy(e.wPrev, opts.W0)
	}
	if opts.VarianceReduced {
		e.wSnap = make([]float64, d)
		e.fullGrad = make([]float64, d)
	}
	e.rec = solvercore.NewRecorder(name, c.Rank(), c.Cost(), c.Machine())
	e.rec.Tol = opts.Tol
	e.rec.FStar = opts.FStar
	e.exch = &solvercore.TieredExchanger{C: c, TierOf: e.tierAt, Faults: opts.Faults, Rec: e.rec}
	return e, nil
}

// BatchLen is the wire length of one k-slot batch: k * (a(a+1)/2 + d)
// words, where a = d, or under ActiveSet the current working set's |A|.
func (e *engine) BatchLen() int {
	a := e.d
	if e.as != nil {
		a = len(e.as.act)
	}
	return e.opts.K * (mat.PackedLen(a) + e.d)
}

// Fill computes the local partial (H_j, R_j) instances of slots
// hIdx..hIdx+k-1 (stages A and B) into buf, advances hIdx and returns
// the fill's cost for the Loop to charge. The k slots are computed by a
// bounded worker pool; each worker charges a private perf.Cost that is
// merged in slot order after the join, so accounting is deterministic
// regardless of scheduling. Pure local compute on state Process never
// writes (hIdx, the sampler, the data — and under ActiveSet, which runs
// blocking, the working set), so the pipelined loop may run it under
// the in-flight collective, before the previous batch is processed.
func (e *engine) Fill(buf []float64) perf.Cost {
	k := e.opts.K
	base := e.hIdx
	if e.as != nil {
		e.as.filled = fillRec{base: base, act: e.as.act}
		e.activeView()
	}
	mat.Zero(buf)
	var fill perf.Cost
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for j := 0; j < k; j++ {
			e.fillSlotAt(j, base, buf, &fill)
		}
	} else {
		costs := e.fillCosts
		clear(costs)
		if cap(e.fillSem) != workers {
			e.fillSem = make(chan struct{}, workers)
		}
		sem := e.fillSem
		var wg sync.WaitGroup
		for j := 0; j < k; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				e.fillSlotAt(j, base, buf, &costs[j])
				<-sem
			}(j)
		}
		wg.Wait()
		for j := 0; j < k; j++ {
			fill.Add(costs[j])
		}
	}
	e.hIdx += k
	return fill
}

// slotView interprets slot j of a batch buffer laid out on an
// a-coordinate working set (a = d without screening) as the packed
// a x a Hessian instance and the full-length R vector that follows it.
// The view is built in place, not by mat.SymPackedOf, so slotView
// inlines and a stage-B fill's view, which its kernel does not retain,
// stays off the heap.
func (e *engine) slotView(batch []float64, j, a int) (*mat.SymPacked, []float64) {
	pl := mat.PackedLen(a)
	slot := batch[j*(pl+e.d) : (j+1)*(pl+e.d)]
	return &mat.SymPacked{N: a, Data: slot[:pl]}, slot[pl:]
}

// update performs one solution update (Algorithm 5 lines 9-15 for a
// single s) with Hessian slot (h, r).
func (e *engine) update(h solvercore.Hessian, r []float64) {
	cost := e.c.Cost()
	tNext := (1 + math.Sqrt(1+4*e.t*e.t)) / 2
	mu := (e.t - 1) / tNext
	e.t = tNext
	cost.AddFlops(6)

	// v = wCurr + mu*(wCurr - wPrev)
	mat.Sub(e.v, e.wCurr, e.wPrev, cost)
	mat.AddScaled(e.v, e.wCurr, mu, e.v, cost)

	if e.opts.VarianceReduced {
		// g = H (v - wSnap) + fullGrad  (Eq. 9 for least squares).
		mat.Sub(e.tmp, e.v, e.wSnap, cost)
		h.MulVec(e.grad, e.tmp, cost)
		mat.Axpy(1, e.fullGrad, e.grad, cost)
	} else {
		// g = H v - R  (Algorithm 4 line 8).
		h.MulVec(e.grad, e.v, cost)
		mat.Axpy(-1, r, e.grad, cost)
	}

	// theta = v - gamma*g ; w = SoftThreshold(theta, lambda*gamma).
	copy(e.wPrev, e.wCurr)
	mat.AddScaled(e.wCurr, e.v, -e.gamma, e.grad, cost)
	e.reg.Apply(e.wCurr, e.wCurr, e.gamma, cost)
	e.rec.Iter++
	e.wVer++
}

// Done gates round starts: the iteration budget is spent.
func (e *engine) Done() bool { return e.rec.Iter >= e.opts.MaxIter }

// MoreAfterNext reports that the in-flight round cannot stop the solve,
// so the pipelined loop may fill the next batch under it: none of its
// k·S updates reaches MaxIter, holds a checkpoint that can meet Tol, or
// holds a variance-reduction snapshot that can meet GradMapTol. A
// speculative fill is then never discarded at a stop; a round that
// could have stopped and did not only fills after it resolves.
func (e *engine) MoreAfterNext() bool {
	o, n := &e.opts, e.opts.K*e.opts.S
	if e.rec.Iter+n >= o.MaxIter {
		return false
	}
	if e.rec.Tol > 0 && !math.IsNaN(e.rec.FStar) && e.sinceEval+n >= o.EvalEvery {
		return false
	}
	return !(o.VarianceReduced && o.GradMapTol > 0 && e.sinceSnap+n >= o.EpochLen)
}

// OnSkip caps fault-skipped rounds so a never-healing network still
// terminates. A round is skipped only while no batch has ever been
// delivered (afterwards it degrades), so no scan window is open when
// the cap fires: the abandoned iterate is the start point.
func (e *engine) OnSkip() bool {
	return e.rec.Faults.SkippedRounds > e.opts.MaxIter
}

// Process runs stage D on one allreduced batch: k*S solution updates
// with variance-reduction refreshes and trace checkpoints interleaved.
// It reports true when the outer loop must stop (convergence or
// MaxIter). Shared verbatim by the blocking and pipelined loops, so
// their update sequences are identical statement for statement — the
// foundation of the bit-identity guarantee.
func (e *engine) Process(shared []float64) bool {
	if e.as != nil {
		return e.processActive(shared)
	}
	for j := 0; j < e.opts.K; j++ {
		h, r := e.slotView(shared, j, e.d)
		for s := 0; s < e.opts.S; s++ {
			e.update(h, r)
			if e.afterUpdate() {
				return true
			}
		}
	}
	return false
}

// afterUpdate is the bookkeeping every solution update is followed by,
// dense or screened: the variance-reduction snapshot refresh (with its
// gradient-map stop) when the epoch is full, the trace checkpoint when
// one is due, then the iteration budget. It reports true when the
// solve must stop.
func (e *engine) afterUpdate() (stop bool) {
	opts := &e.opts
	e.sinceSnap++
	e.sinceEval++
	if opts.VarianceReduced && e.sinceSnap >= opts.EpochLen {
		e.refreshSnapshot()
		e.sinceSnap = 0
		if e.gradMapStop {
			e.checkpoint(true)
			e.rec.Converged = true
			return true
		}
	}
	if e.sinceEval >= opts.EvalEvery {
		e.sinceEval = 0
		if e.checkpoint(e.rec.Iter >= opts.MaxIter) {
			e.rec.Converged = true
			return true
		}
	}
	return e.rec.Iter >= opts.MaxIter
}

// finish packages the result. GradMap is the norm the GradMapTol stop
// read at W: set only when that stop ended the solve — gradMapStop
// survives an active-set redo only if the redo stopped again — and the
// snapshot gradient behind it crossed the wire unquantized.
func (e *engine) finish() *Result {
	res := e.rec.Finish(mat.Clone(e.wCurr))
	if e.gradMapStop && !e.tiers.on {
		res.GradMap = e.ex.norm
	}
	return res
}
