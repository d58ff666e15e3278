package dist

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Calibration replaces an assumed machine profile with parameters
// measured on the live transport, the way the paper calibrates its
// model against MPI benchmarks on Comet (Section 5.3):
//
//   - alpha (latency) and beta (inverse bandwidth) come from a
//     rank 0 <-> rank 1 ping-pong sweep: half round-trip time over a
//     range of message sizes, min over repetitions to shed scheduler
//     noise, then a least-squares fit of t = alpha + beta*n.
//   - gamma (seconds per flop) comes from a timed axpy loop.
//   - an allreduce sweep over the same sizes is recorded alongside, the
//     collective-level cross-check of the fitted point-to-point model
//     (tree model predicts ~log2(P)*(alpha + beta*n) per allreduce).
//
// Rank 0 fits and broadcasts the parameters, so every rank ends up
// with the same Machine bit for bit — calibration must never be a
// source of cross-rank divergence. The communicator's cost counters
// are snapshotted and restored: measuring the machine is free in the
// model's own accounting.

// CalibrationOptions tunes the measurement sweep. Zero values select
// the defaults.
type CalibrationOptions struct {
	// Sizes are the payload sizes (words) of the ping-pong and
	// allreduce sweeps. Default {1, 64, 512, 4096, 32768}.
	Sizes []int
	// Reps is the number of repetitions per size; the minimum is kept.
	// Default 20.
	Reps int
	// GammaFlops is the flop count of the timed compute loop.
	// Default 8Mi flops.
	GammaFlops int
}

func (o CalibrationOptions) withDefaults() CalibrationOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1, 64, 512, 4096, 32768}
	}
	if o.Reps <= 0 {
		o.Reps = 20
	}
	if o.GammaFlops <= 0 {
		o.GammaFlops = 8 << 20
	}
	return o
}

// CalibrationPoint is one measured (payload size, seconds) sample.
type CalibrationPoint struct {
	// Words is the payload size in 8-byte words.
	Words int
	// Seconds is the measured time: half round-trip for ping-pong
	// points, full collective time for allreduce points.
	Seconds float64
}

// Calibration is the result of measuring the live transport.
type Calibration struct {
	// Machine holds the fitted parameters, ready for perf cost
	// evaluation. Name is "calibrated(<base>)".
	Machine perf.Machine
	// P is the world size the measurement ran on.
	P int
	// PingPong are the per-size half-round-trip samples (rank 0's
	// minima) the alpha/beta fit consumed.
	PingPong []CalibrationPoint
	// Allreduce are the per-size full-collective samples, the
	// cross-check that the fitted point-to-point parameters are
	// consistent with collective behavior.
	Allreduce []CalibrationPoint
	// AllreduceF32 and AllreduceI8 are the compressed-collective
	// sweeps behind the per-tier beta fits. Words holds the MODELED
	// wire words of the payload (perf.F32Words / perf.I8Words of the
	// value count), so the fitted slope is directly the per-word
	// inverse bandwidth of that tier's frames. Empty when the
	// transport lacks the tier's capability.
	AllreduceF32 []CalibrationPoint
	AllreduceI8  []CalibrationPoint
}

// String renders the calibration as a small report.
func (cal Calibration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibrated on P=%d: alpha=%.3g s, beta=%.3g s/word, gamma=%.3g s/flop\n",
		cal.P, cal.Machine.Alpha, cal.Machine.Beta, cal.Machine.Gamma)
	if cal.Machine.BetaF32 > 0 || cal.Machine.BetaI8 > 0 {
		fmt.Fprintf(&b, "per-tier beta: f32=%.3g s/word, i8=%.3g s/word\n",
			cal.Machine.F32Beta(), cal.Machine.I8Beta())
	}
	fmt.Fprintf(&b, "%10s %16s %16s\n", "words", "pingpong(s)", "allreduce(s)")
	for i, pt := range cal.PingPong {
		ar := ""
		if i < len(cal.Allreduce) {
			ar = fmt.Sprintf("%16.3g", cal.Allreduce[i].Seconds)
		}
		fmt.Fprintf(&b, "%10d %16.3g %s\n", pt.Words, pt.Seconds, ar)
	}
	return b.String()
}

// fitAlphaBeta least-squares fits t = alpha + beta*n over the sample
// points, clamping both parameters positive (a noisy loopback sweep
// can produce a slightly negative intercept; the model requires
// positive parameters).
func fitAlphaBeta(pts []CalibrationPoint) (alpha, beta float64) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := float64(p.Words), p.Seconds
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den > 0 {
		beta = (n*sxy - sx*sy) / den
		alpha = (sy - beta*sx) / n
	}
	if alpha <= 0 {
		alpha = 1e-9
	}
	if beta <= 0 {
		beta = 1e-13
	}
	return alpha, beta
}

// gammaSink keeps measureGamma's arithmetic observable. Atomic: the
// in-process worlds run every rank's calibration concurrently.
var gammaSink atomic.Uint64

// measureGamma times a dependent axpy loop of roughly flops floating
// point operations and returns seconds per flop.
func measureGamma(flops int) float64 {
	const n = 4096
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = 1.0 / float64(i+1)
	}
	iters := flops / (2 * n)
	if iters < 1 {
		iters = 1
	}
	sink := 0.0
	start := time.Now()
	for it := 0; it < iters; it++ {
		s := sink * 1e-300 // carry a data dependency across iterations
		for _, v := range buf {
			s += 1.0000001 * v
		}
		sink = s
	}
	elapsed := time.Since(start).Seconds()
	gammaSink.Store(math.Float64bits(sink)) // keep the loop observable so it cannot be elided
	g := elapsed / float64(2*n*iters)
	if g <= 0 {
		g = 1e-12
	}
	return g
}

// Calibrate measures the live transport under c and returns the
// fitted machine. All ranks must call it collectively (it uses
// Send/Recv, Barrier, Allreduce and Bcast internally); every rank
// receives the identical fitted Machine. On a single rank there is no
// transport to measure: alpha/beta keep the communicator's current
// machine values and only gamma is measured.
func Calibrate(c Comm, opts CalibrationOptions) Calibration {
	opts = opts.withDefaults()
	snapshot := *c.Cost()
	defer func() { *c.Cost() = snapshot }()

	base := c.Machine()
	cal := Calibration{P: c.Size()}
	gamma := measureGamma(opts.GammaFlops)

	if c.Size() == 1 {
		cal.Machine = perf.Machine{
			Name:  "calibrated(" + base.Name + ")",
			Alpha: base.Alpha, Beta: base.Beta, Gamma: gamma,
		}
		return cal
	}

	// Ping-pong sweep between ranks 0 and 1; other ranks sit out the
	// point-to-point phase and rejoin at the barrier.
	for _, words := range opts.Sizes {
		buf := make([]float64, words)
		best := 0.0
		for rep := 0; rep < opts.Reps; rep++ {
			switch c.Rank() {
			case 0:
				start := time.Now()
				c.Send(1, buf)
				c.Recv(1)
				half := time.Since(start).Seconds() / 2
				if rep == 0 || half < best {
					best = half
				}
			case 1:
				c.Recv(0)
				c.Send(0, buf)
			}
		}
		if c.Rank() == 0 {
			cal.PingPong = append(cal.PingPong, CalibrationPoint{Words: words, Seconds: best})
		}
		c.Barrier()
	}

	// Allreduce sweep: full-collective wall time, min over reps.
	for _, words := range opts.Sizes {
		buf := make([]float64, words)
		best := 0.0
		for rep := 0; rep < opts.Reps; rep++ {
			c.Barrier()
			start := time.Now()
			c.Allreduce(buf, OpSum)
			dt := time.Since(start).Seconds()
			if rep == 0 || dt < best {
				best = dt
			}
		}
		if c.Rank() == 0 {
			cal.Allreduce = append(cal.Allreduce, CalibrationPoint{Words: words, Seconds: best})
		}
		c.Barrier()
	}

	// Compressed-collective sweeps on the tiers the transport supports,
	// timed like the f64 allreduce sweep. Points carry the tier's
	// modeled wire words so the fit slope reads as seconds per word of
	// that tier's frames. All ranks agree on whether a tier runs — the
	// capability is a property of the shared transport type.
	sweepTier := func(t Tier) []CalibrationPoint {
		if SupportsTier(c, t) != nil {
			return nil
		}
		var pts []CalibrationPoint
		for _, words := range opts.Sizes {
			buf := make([]float64, words)
			best := 0.0
			for rep := 0; rep < opts.Reps; rep++ {
				c.Barrier()
				start := time.Now()
				AllreduceSharedTier(c, buf, t)
				dt := time.Since(start).Seconds()
				if rep == 0 || dt < best {
					best = dt
				}
			}
			if c.Rank() == 0 {
				pts = append(pts, CalibrationPoint{Words: int(tiers[t].words(words)), Seconds: best})
			}
			c.Barrier()
		}
		return pts
	}
	cal.AllreduceF32 = sweepTier(TierF32)
	cal.AllreduceI8 = sweepTier(TierI8)
	f32Ran := SupportsTier(c, TierF32) == nil
	i8Ran := SupportsTier(c, TierI8) == nil

	// Rank 0 fits; everyone receives the same parameters, so the
	// machines cannot diverge across ranks. The per-tier betas come
	// from the collective sweeps: the tree model prices an allreduce at
	// ~log2(P)*(alpha + beta*words), so the fitted slope divides by
	// log2(P) to yield the per-word inverse bandwidth of the tier.
	params := make([]float64, 5)
	if c.Rank() == 0 {
		alpha, beta := fitAlphaBeta(cal.PingPong)
		params[0], params[1], params[2] = alpha, beta, gamma
		lg := float64(perf.Log2Ceil(c.Size()))
		if len(cal.AllreduceF32) > 0 {
			_, slope := fitAlphaBeta(cal.AllreduceF32)
			params[3] = slope / lg
		}
		if len(cal.AllreduceI8) > 0 {
			_, slope := fitAlphaBeta(cal.AllreduceI8)
			params[4] = slope / lg
		}
	}
	c.Bcast(params, 0)
	cal.Machine = perf.Machine{
		Name:  "calibrated(" + base.Name + ")",
		Alpha: params[0], Beta: params[1], Gamma: params[2],
		BetaF32: params[3], BetaI8: params[4],
	}

	// The sweep samples only live on rank 0; share them so any rank can
	// render the report (the multi-process CLI prints from rank 0, the
	// in-process experiment gathers from the world).
	pp := make([]float64, len(opts.Sizes))
	ar := make([]float64, len(opts.Sizes))
	arf32 := make([]float64, 2*len(opts.Sizes))
	ari8 := make([]float64, 2*len(opts.Sizes))
	if c.Rank() == 0 {
		for i := range cal.PingPong {
			pp[i] = cal.PingPong[i].Seconds
			ar[i] = cal.Allreduce[i].Seconds
		}
		for i, pt := range cal.AllreduceF32 {
			arf32[2*i], arf32[2*i+1] = float64(pt.Words), pt.Seconds
		}
		for i, pt := range cal.AllreduceI8 {
			ari8[2*i], ari8[2*i+1] = float64(pt.Words), pt.Seconds
		}
	}
	c.Bcast(pp, 0)
	c.Bcast(ar, 0)
	c.Bcast(arf32, 0)
	c.Bcast(ari8, 0)
	if c.Rank() != 0 {
		for i, words := range opts.Sizes {
			cal.PingPong = append(cal.PingPong, CalibrationPoint{Words: words, Seconds: pp[i]})
			cal.Allreduce = append(cal.Allreduce, CalibrationPoint{Words: words, Seconds: ar[i]})
		}
		if f32Ran {
			for i := range opts.Sizes {
				cal.AllreduceF32 = append(cal.AllreduceF32,
					CalibrationPoint{Words: int(arf32[2*i]), Seconds: arf32[2*i+1]})
			}
		}
		if i8Ran {
			for i := range opts.Sizes {
				cal.AllreduceI8 = append(cal.AllreduceI8,
					CalibrationPoint{Words: int(ari8[2*i]), Seconds: ari8[2*i+1]})
			}
		}
	}
	return cal
}
