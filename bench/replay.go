package main

import (
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Replays time one layer's public functions directly, at the shapes
// the workload's solves use, outside any solve. They say what a call
// costs alone on an otherwise idle process: inside a solve two ranks
// share the cores, so replay times are a lower bound on the in-solve
// cost.

// replayBudget is the time one replay measures for.
var replayBudget = 150 * time.Millisecond

// timeCalls calls fn until replayBudget has passed (at least 3 times)
// and returns the median seconds per call.
func timeCalls(fn func()) float64 {
	fn() // untimed: page in, size buffers
	var samples []float64
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < replayBudget {
		t := time.Now()
		fn()
		samples = append(samples, time.Since(t).Seconds())
	}
	return median(samples)
}

// kernelReplay holds the per-round replay times the unaccounted share
// is computed from, and the dimension they were replayed at: d, or the
// size of the final support with screening.
type kernelReplay struct {
	fillPerRound, innerPerRound float64
	dim                         int
}

// replayKernels replays one round's local work of rank 0: k Gram fills
// over mbar sampled columns of its partition, then k*S updates (packed
// mat-vec + prox). With screening the fill is the active-rows kernel
// and the inner dimension the final support, the closest fixed shape
// to a working set that moves during the solve.
func replayKernels(r *report, in *lsInstance, seed uint64) kernelReplay {
	x, y, o := in.prob.X, in.prob.Y, in.opts
	d, m := x.Rows, x.Cols
	local := solver.Partition(x, y, benchProcs, 0)
	mbar := max(int(o.B*float64(m)), 1)
	src := rng.New(seed ^ 0x5eed)
	cols := make([][]int, o.K)
	for j := range cols {
		cols[j] = local.LocalCols(src.SampleWithoutReplacement(m, mbar))
	}
	scale := 1 / float64(mbar)

	var out kernelReplay
	h, rv := mat.NewSymPacked(d), make([]float64, d)
	var cost perf.Cost
	fullFill := timeCalls(func() {
		cost = perf.Cost{}
		for j := 0; j < o.K; j++ {
			h.Zero()
			mat.Zero(rv)
			sparse.SampledGramPacked(local.X, h, rv, local.Y, cols[j], scale, &cost)
		}
	})
	r.set("sparse.gram_fill_s_per_round", fullFill)
	r.set("sparse.gram_gflops", float64(cost.Flops)/fullFill/1e9)
	out.fillPerRound = fullFill

	out.dim = d
	if o.ActiveSet {
		var act []int
		pos := make([]int, d)
		for i, v := range in.warm.W {
			pos[i] = -1
			if v != 0 {
				pos[i] = len(act)
				act = append(act, i)
			}
		}
		out.dim = len(act)
		h = mat.NewSymPacked(out.dim)
		rowScratch, valScratch := make([]int, d), make([]float64, d)
		out.fillPerRound = timeCalls(func() {
			for j := 0; j < o.K; j++ {
				h.Zero()
				mat.Zero(rv)
				sparse.SampledGramPackedRows(local.X, h, rv, local.Y, cols[j], act, pos, rowScratch, valScratch, scale, nil)
			}
		})
		r.set("sparse.gram_rows_fill_s_per_round", out.fillPerRound)
	}

	obj := prox.NewObjective(x, y, prox.L1{Lambda: o.Lambda})
	g := make([]float64, d)
	r.set("sparse.full_grad_s", timeCalls(func() { obj.Gradient(g, in.warm.W, nil) }))

	// h holds the last replayed Gram: realistic values for the mat-vec.
	v, hv := make([]float64, out.dim), make([]float64, out.dim)
	for i := range v {
		v[i] = src.NormFloat64()
	}
	reg := prox.L1{Lambda: o.Lambda}
	r.set("mat.mulvec_ns", 1e9*timeCalls(func() { h.MulVec(hv, v, nil) }))
	out.innerPerRound = timeCalls(func() {
		for u := 0; u < o.K*o.S; u++ {
			h.MulVec(hv, v, nil)
			reg.Apply(hv, hv, o.Gamma, nil)
		}
	})
	r.set("mat.inner_s_per_round", out.innerPerRound)
	wide := make([]float64, d)
	r.set("prox.apply_ns_per_elt", 1e9*timeCalls(func() { reg.Apply(wide, in.warm.W, o.Gamma, nil) })/float64(d))
	r.set("rng.sample_ns_per_draw", 1e9*timeCalls(func() { src.SampleWithoutReplacement(m, mbar) })/float64(mbar))
	return out
}

// worldSetupUS times building a world on the backend and running an
// empty function on it: construction, connection (the tcp mesh is
// dialled inside Run) and teardown, the fixed cost every solve and
// every /fit pays.
func worldSetupUS(backend string) (float64, error) {
	var err error
	us := 1e6 * timeCalls(func() {
		w, werr := dist.NewWorldOn(backend, benchProcs, perf.Comet())
		if werr == nil {
			werr = w.Run(func(dist.Comm) error { return nil })
		}
		if werr != nil {
			err = werr
		}
	})
	return us, err
}

// replayAllreduce times the tiered shared allreduce on the workload's
// backend at its three payload sizes: the batch (k slots), a d-vector
// and a scalar. Rank 0's clock is reported; every rank makes the same
// calls.
func replayAllreduce(r *report, spec *lsSpec, batchWords, d int, seed uint64) error {
	tier := dist.TierF64
	if spec.Tier != "" {
		// auto picks i8 for the long payloads early in a solve; the
		// replay pins that choice (short payloads floor to f32).
		tier = dist.TierI8
	}
	sizes := []struct {
		name  string
		words int
	}{{"dist.allreduce_us.batch", batchWords}, {"dist.allreduce_us.vec", d}, {"dist.allreduce_us.scalar", 1}}
	w, err := dist.NewWorldOn(spec.Backend, benchProcs, perf.Comet())
	if err != nil {
		return err
	}
	us := make([]float64, len(sizes))
	err = w.Run(func(c dist.Comm) error {
		src := rng.New(seed + uint64(c.Rank()))
		for i, sz := range sizes {
			buf := make([]float64, sz.words)
			for j := range buf {
				buf[j] = src.NormFloat64()
			}
			t := dist.EffectiveTier(tier, sz.words)
			// A fixed call count keeps the ranks in step; the batch is
			// the expensive one.
			calls := 200
			if sz.words > 1<<16 {
				calls = 12
			}
			samples := make([]float64, calls)
			for k := range samples {
				t0 := time.Now()
				dist.AllreduceSharedTier(c, buf, t)
				samples[k] = time.Since(t0).Seconds()
			}
			if c.Rank() == 0 {
				us[i] = 1e6 * median(samples)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, sz := range sizes {
		r.set(sz.name, us[i])
	}
	return nil
}

// replayWire times the frame codec (encode + decode) at the batch
// payload for each tier, in MB of f64 payload per second.
func replayWire(r *report, batchWords int, seed uint64) {
	src := rng.New(seed ^ 0xf4a3e)
	payload := make([]float64, batchWords)
	for i := range payload {
		payload[i] = src.NormFloat64()
	}
	kinds := []struct {
		name string
		kind dist.FrameKind
	}{
		{"dist.wire_mb_s.f64", dist.FrameContrib},
		{"dist.wire_mb_s.f32", dist.FrameContribF32},
		{"dist.wire_mb_s.i8", dist.FrameContribI8},
	}
	var buf []byte
	for _, k := range kinds {
		var derr error
		sec := timeCalls(func() {
			buf = dist.AppendFrame(buf[:0], dist.Frame{Kind: k.kind, Payload: payload})
			if _, _, err := dist.DecodeFrame(buf); err != nil {
				derr = err
			}
		})
		if derr != nil {
			r.errorf("%s: %v", k.name, derr)
			continue
		}
		r.set(k.name, 8*float64(batchWords)/sec/1e6)
	}
}
