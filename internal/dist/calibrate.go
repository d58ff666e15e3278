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
// model against MPI benchmarks on Comet (Section 5.3). The model bills
// allreduces and nothing else (Table 1, Eq. 24), so the allreduce is
// what is timed:
//
//   - one sweep per tier the transport supports times the shared
//     allreduce (AllreduceSharedTier), barrier-aligned, keeping the
//     minimum over repetitions to shed scheduler noise; each tier is
//     fitted in the form chargeAllreduceTier bills and TierSeconds
//     prices it, t / log2(P) = alpha_t + beta_t * words_t(n). The f64
//     fit gives Alpha and Beta, the f32 and i8 fits BetaF32 and BetaI8.
//   - gamma (seconds per flop) comes from a timed axpy loop.
//
// Rank 0's gamma and samples reach every rank in one Bcast and every
// rank fits them, so every rank ends up with the same Machine bit for
// bit — calibration must never be a source of cross-rank divergence.
// The communicator's cost counters are snapshotted and restored:
// measuring the machine is free in the model's own accounting.

// CalibrationOptions tunes the measurement sweep. Zero values select
// the defaults.
type CalibrationOptions struct {
	// Sizes are the payload sizes (values) of the allreduce sweeps.
	// Default {1, 64, 512, 4096, 32768}.
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
	// Words is the tier's modeled wire words of the payload (the value
	// count for f64, perf.F32Words / perf.I8Words of it for the
	// compressed tiers), so a fitted slope is directly the per-word
	// inverse bandwidth of that tier's frames.
	Words int
	// Seconds is the full collective time, minimum over repetitions.
	Seconds float64
}

// Calibration is the result of measuring the live transport.
type Calibration struct {
	// Machine holds the fitted parameters, ready for perf cost
	// evaluation. Name is "calibrated(<base>)".
	Machine perf.Machine
	// P is the world size the measurement ran on.
	P int
	// Sweeps holds, indexed by Tier, rank 0's per-size samples of the
	// shared allreduce the fits consumed; every rank holds the same
	// ones. A tier's sweep is empty when the transport lacks the tier,
	// and every sweep is empty on a single rank.
	Sweeps [len(tiers)][]CalibrationPoint
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
	fmt.Fprintf(&b, "%10s", "values")
	for t, pts := range cal.Sweeps {
		if len(pts) > 0 {
			fmt.Fprintf(&b, " %16s", Tier(t).String()+" allreduce(s)")
		}
	}
	b.WriteByte('\n')
	for i, pt := range cal.Sweeps[TierF64] {
		fmt.Fprintf(&b, "%10d", pt.Words)
		for _, pts := range cal.Sweeps {
			if len(pts) > 0 {
				fmt.Fprintf(&b, " %16.3g", pts[i].Seconds)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fitTier least-squares fits a tier's sweep on p ranks in the form the
// model bills it, seconds / log2(P) = alpha + beta*words, clamping both
// parameters positive (a noisy loopback sweep can produce a slightly
// negative intercept; the model requires positive parameters).
func fitTier(pts []CalibrationPoint, p int) (alpha, beta float64) {
	lg := float64(perf.Log2Ceil(p))
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, pt := range pts {
		x, y := float64(pt.Words), pt.Seconds/lg
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

// sweep returns, per size, this rank's fastest of reps barrier-aligned
// shared allreduces at tier t, in seconds.
func sweep(c Comm, t Tier, opts CalibrationOptions) []float64 {
	secs := make([]float64, len(opts.Sizes))
	for i, n := range opts.Sizes {
		buf := make([]float64, n)
		secs[i] = math.Inf(1)
		for rep := 0; rep < opts.Reps; rep++ {
			c.Barrier()
			start := time.Now()
			AllreduceSharedTier(c, buf, t)
			secs[i] = math.Min(secs[i], time.Since(start).Seconds())
		}
	}
	return secs
}

// Calibrate measures the live transport under c and returns the
// fitted machine. All ranks must call it collectively (it uses
// Barrier, the shared allreduce at every supported tier and one
// Bcast); every rank receives the identical fitted Machine. On a
// single rank there is no transport to measure: alpha/beta keep the
// communicator's current machine values and only gamma is measured.
func Calibrate(c Comm, opts CalibrationOptions) Calibration {
	opts = opts.withDefaults()
	snapshot := *c.Cost()
	defer func() { *c.Cost() = snapshot }()

	base := c.Machine()
	cal := Calibration{P: c.Size()}
	cal.Machine = perf.Machine{Name: "calibrated(" + base.Name + ")", Gamma: measureGamma(opts.GammaFlops)}
	if c.Size() == 1 {
		cal.Machine.Alpha, cal.Machine.Beta = base.Alpha, base.Beta
		return cal
	}

	// params is [gamma | one block of per-size seconds per supported
	// tier]. Every rank agrees on which tiers run — the capability is a
	// property of the shared transport type — so every rank lays the
	// blocks out alike and reads rank 0's back in the same order.
	var run []Tier
	params := []float64{cal.Machine.Gamma}
	for t := range tiers {
		if SupportsTier(c, Tier(t)) == nil {
			run = append(run, Tier(t))
			params = append(params, sweep(c, Tier(t), opts)...)
		}
	}
	c.Bcast(params, 0)
	cal.Machine.Gamma = params[0]
	for i, t := range run {
		secs := params[1+i*len(opts.Sizes):]
		pts := make([]CalibrationPoint, len(opts.Sizes))
		for j, n := range opts.Sizes {
			pts[j] = CalibrationPoint{Words: int(tiers[t].words(n)), Seconds: secs[j]}
		}
		cal.Sweeps[t] = pts
		alpha, beta := fitTier(pts, c.Size())
		switch t {
		case TierF64:
			cal.Machine.Alpha, cal.Machine.Beta = alpha, beta
		case TierF32:
			cal.Machine.BetaF32 = beta
		case TierI8:
			cal.Machine.BetaI8 = beta
		}
	}
	return cal
}
