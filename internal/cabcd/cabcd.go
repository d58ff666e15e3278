// Package cabcd implements CA-BCD, the communication-avoiding block
// coordinate descent method of Devarakonda, Fountoulakis, Demmel &
// Mahoney (2016) — reference [13] of the paper and the closest prior
// communication-avoiding method. It solves the l2-regularized least
// squares problem
//
//	min_x (1/2m) ||X^T x - y||^2 + (lambda2/2) ||x||^2
//
// by exact block coordinate updates: at iteration t a random
// coordinate block B_t of size bs is updated by solving the bs x bs
// system (G_BB/1 + lambda2 I) dx = -grad_B.
//
// The communication-avoiding variant unrolls s iterations: the blocks
// B_1..B_s are drawn ahead (pure functions of the shared seed), the
// FULL cross-Gram of the s*bs chosen coordinates is combined in ONE
// allreduce, and the s block solves then proceed locally, correcting
// each later block's gradient with the cross-Gram terms
// G_{B_j,B_i} dx_i of the earlier updates.
//
// The contrast with RC-SFISTA (paper Section 1) is the point of this
// package: CA-BCD's per-round message GROWS quadratically with s
// ((s*bs)^2 words versus s separate bs^2-word rounds), while
// RC-SFISTA's iteration-overlapping keeps the per-iteration bandwidth
// constant in k. TestMessageGrowth pins the factor.
package cabcd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Options configures a CA-BCD solve.
type Options struct {
	// Lambda2 is the l2 (ridge) penalty; must be positive for the
	// block systems to stay well conditioned.
	Lambda2 float64
	// BlockSize is the number of coordinates per block (bs).
	BlockSize int
	// S is the unrolling parameter: S block updates per communication
	// round (s = 1 is classical BCD).
	S int
	// MaxRounds bounds the number of communication rounds.
	MaxRounds int
	// Tol / FStar: relative objective error stop, as elsewhere.
	Tol, FStar float64
	// Seed drives the shared block selection.
	Seed uint64
	// EvalEvery is the number of rounds between trace points.
	EvalEvery int
	// TraceName overrides the recorded series name.
	TraceName string
}

func (o Options) withDefaults() Options {
	if o.BlockSize == 0 {
		o.BlockSize = 4
	}
	if o.S == 0 {
		o.S = 1
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 500
	}
	if o.EvalEvery == 0 {
		o.EvalEvery = 1
	}
	if o.FStar == 0 {
		o.FStar = math.NaN()
	}
	if o.TraceName == "" {
		o.TraceName = fmt.Sprintf("cabcd-s%d", o.S)
	}
	return o
}

// Solve runs CA-BCD on communicator c with this rank's column (sample)
// block — the same data layout as solver.Partition. All ranks must
// pass identical opts.
func Solve(c dist.Comm, local solver.LocalData, opts Options) (*solver.Result, error) {
	return SolveContext(context.Background(), c, local, opts)
}

// SolveContext is Solve under a context (see solver.RCSFISTAContext
// for the cancellation contract).
func SolveContext(ctx context.Context, c dist.Comm, local solver.LocalData, opts Options) (*solver.Result, error) {
	opts = opts.withDefaults()
	if opts.Lambda2 <= 0 {
		return nil, errors.New("cabcd: Lambda2 must be positive")
	}
	if local.X == nil || local.X.Cols != len(local.Y) {
		return nil, errors.New("cabcd: inconsistent local data")
	}
	d := local.X.Rows
	m := local.MGlobal
	bs := opts.BlockSize
	if bs > d {
		bs = d
	}
	s := opts.S
	if s*bs > d {
		return nil, fmt.Errorf("cabcd: S*BlockSize = %d exceeds the %d features; a round cannot draw that many distinct coordinates", s*bs, d)
	}
	cost := c.Cost()

	e := &engine{
		c: c, local: local, opts: opts,
		d: d, m: m, bs: bs, s: s, sb: s * bs,
		// Row (feature) view of the local sample block, for residual
		// updates and block gradient partials.
		xRows: local.X.ToCSR(),
		x:     make([]float64, d),
		res:   make([]float64, local.X.Cols),
		sampler: solvercore.StreamSampler{
			Src: rng.NewSource(opts.Seed), Epoch: 5, N: d, Draw: s * bs,
		},
	}
	for i := range e.res {
		e.res[i] = -local.Y[i]
	}
	rec := solvercore.NewRecorder(opts.TraceName, c.Rank(), cost, c.Machine())
	rec.Tol, rec.FStar = opts.Tol, opts.FStar
	e.rec = rec

	rec.CheckpointAt(0, 0, e.evaluate())
	err := solvercore.Loop(solvercore.Spec{
		Ctx:      ctx,
		Comm:     c,
		Rec:      rec,
		Fill:     e,
		Exchange: solvercore.AllreduceExchanger{C: c},
		Pass:     e,
		Stop:     e,
	})
	if err == nil && e.err != nil {
		return nil, e.err
	}
	return rec.Finish(e.x), err
}

// engine is the BatchFiller, InnerPass and StopPolicy of one CA-BCD
// solve; one round = s block updates with ONE allreduce.
type engine struct {
	rec   *solvercore.Recorder
	c     dist.Comm
	local solver.LocalData
	opts  Options

	d, m, bs, s, sb int
	xRows           *sparse.CSR
	sampler         solvercore.StreamSampler
	blocks          []int

	x   []float64 // iterate
	res []float64 // local residual block: X_loc^T x - y_loc
	err error     // deferred block-solve failure
}

// BatchLen is the round payload: cross-Gram of the s*bs chosen
// coordinates plus their gradient partials — sb^2 + sb words.
func (e *engine) BatchLen() int { return e.sb*e.sb + e.sb }

// Fill draws the round's s blocks from the shared stream (no comm) and
// computes the local partials: cross-Gram (1/m) X_B,loc X_B,loc^T over
// the local samples, and gradient g_B = (1/m) X_B,loc res_loc.
func (e *engine) Fill(payload []float64) perf.Cost {
	round := e.rec.Rounds + 1
	sb, m := e.sb, e.m
	e.blocks = e.sampler.AppendSample(e.blocks[:0], round)

	mat.Zero(payload)
	gram := payload[:sb*sb]
	grad := payload[sb*sb:]
	var flops int64
	for a := 0; a < sb; a++ {
		colsA, valsA := e.xRows.Row(e.blocks[a])
		// Gradient partial.
		var g float64
		for k, j := range colsA {
			g += valsA[k] * e.res[j]
		}
		grad[a] = g / float64(m)
		flops += int64(2 * len(colsA))
		// Gram row (symmetric; fill both triangles).
		for b := a; b < sb; b++ {
			colsB, valsB := e.xRows.Row(e.blocks[b])
			dot := sparseRowDot(colsA, valsA, colsB, valsB)
			v := dot / float64(m)
			gram[a*sb+b] = v
			gram[b*sb+a] = v
			flops += int64(2 * (len(colsA) + len(colsB)))
		}
	}
	return perf.Cost{Flops: flops}
}

// Process runs stage D on the combined payload: s exact block solves
// with cross-Gram corrections, redundantly on every rank.
func (e *engine) Process(shared []float64) bool {
	cost := e.rec.Cost
	round := e.rec.Rounds
	sb, bs, s := e.sb, e.bs, e.s
	gram := shared[:sb*sb]
	grad := append([]float64(nil), shared[sb*sb:]...)

	dxAll := make([]float64, sb)
	for t := 0; t < s; t++ {
		lo, hi := t*bs, (t+1)*bs
		// Correct this block's gradient for earlier updates:
		// g_B += G_{B_t, B_i} dx_i for i < t, plus lambda2 x_B.
		rhs := make([]float64, bs)
		for a := lo; a < hi; a++ {
			g := grad[a]
			for i := 0; i < lo; i++ {
				g += gram[a*sb+i] * dxAll[i]
			}
			g += e.opts.Lambda2 * e.x[e.blocks[a]]
			rhs[a-lo] = -g
		}
		cost.AddFlops(int64(bs * (lo + 2)))

		// Block system: (G_BB + lambda2 I) dx = rhs.
		sys := mat.NewDense(bs, bs)
		for a := 0; a < bs; a++ {
			for b := 0; b < bs; b++ {
				sys.Set(a, b, gram[(lo+a)*sb+lo+b])
			}
			sys.Set(a, a, sys.At(a, a)+e.opts.Lambda2)
		}
		dx, err := mat.SolveSPD(sys, rhs, cost)
		if err != nil {
			e.err = fmt.Errorf("cabcd: block solve: %w", err)
			return true
		}
		copy(dxAll[lo:hi], dx)

		// Apply: x_B += dx, local residual += X_B,loc^T dx.
		for a := 0; a < bs; a++ {
			coord := e.blocks[lo+a]
			e.x[coord] += dx[a]
			cols, vals := e.xRows.Row(coord)
			for k, j := range cols {
				e.res[j] += vals[k] * dx[a]
			}
			cost.AddFlops(int64(2 * len(cols)))
		}
		e.rec.Iter++
	}

	if round%e.opts.EvalEvery == 0 || round == e.opts.MaxRounds {
		if e.rec.Checkpoint(e.evaluate()) {
			e.rec.Converged = true
			return true
		}
	}
	return false
}

// evaluate computes the global objective as instrumentation (cost
// rolled back).
func (e *engine) evaluate() float64 {
	cost := e.rec.Cost
	saved := *cost
	var loss float64
	for _, r := range e.res {
		loss += r * r
	}
	loss = dist.AllreduceScalar(e.c, loss, dist.OpSum)
	var l2 float64
	for _, v := range e.x {
		l2 += v * v
	}
	*cost = saved
	return loss/(2*float64(e.m)) + 0.5*e.opts.Lambda2*l2
}

// OnSkip never fires: the plain allreduce cannot lose a round.
func (e *engine) OnSkip() bool { return true }

// Done gates on the round budget.
func (e *engine) Done() bool { return e.rec.Rounds >= e.opts.MaxRounds }

// sparseRowDot computes the dot product of two sparse rows given as
// sorted (index, value) pairs.
func sparseRowDot(ia []int, va []float64, ib []int, vb []float64) float64 {
	var s float64
	i, j := 0, 0
	for i < len(ia) && j < len(ib) {
		switch {
		case ia[i] < ib[j]:
			i++
		case ia[i] > ib[j]:
			j++
		default:
			s += va[i] * vb[j]
			i++
			j++
		}
	}
	return s
}

// SolveDistributed partitions (x, y) across the world and runs CA-BCD
// on all ranks, mirroring solver.SolveDistributed.
func SolveDistributed(w dist.World, x *sparse.CSC, y []float64, opts Options) (*solver.Result, error) {
	return SolveDistributedContext(context.Background(), w, x, y, opts)
}

// SolveDistributedContext is SolveDistributed under a context, with
// the partial-result contract of solver.SolveDistributedContext.
func SolveDistributedContext(ctx context.Context, w dist.World, x *sparse.CSC, y []float64, opts Options) (*solver.Result, error) {
	return solvercore.RunWorld(w, func(c dist.Comm) (*solver.Result, error) {
		local := solver.Partition(x, y, c.Size(), c.Rank())
		return SolveContext(ctx, c, local, opts)
	})
}
