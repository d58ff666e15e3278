package expt

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Transport exercises the pluggable dist backends: the same RC-SFISTA
// solve runs once per registered backend and the report proves the
// results are bit-identical — same W bits, same objective bits, same
// cost counters — so transport choice is purely an execution-substrate
// decision. The second half calibrates alpha/beta/gamma on each
// backend from ping-pong and allreduce sweeps (Section 5.1's
// machine-characterization step, measured instead of assumed) and
// tabulates the fitted parameters next to the assumed model; the third
// table holds the calibrated model to account, timing the shared
// allreduce per payload size and tier next to what dist.TierSeconds
// predicts for it under the machine just fitted.
func Transport(cfg Config) *Report {
	const p = 4
	in := prepare(cfg, "covtype")
	maxIter := 320
	if cfg.Scale == Full {
		maxIter = 960
	}

	run := func(backend string) *solver.Result {
		c := cfg
		c.Transport = backend
		o := in.optionsForB(cfg, 0.1)
		o.Tol = 0 // fixed budget: identical round counts by construction
		o.MaxIter = maxIter
		o.K = 4
		o.S = 2
		o.TraceName = backend
		w := c.NewWorld(p)
		res, err := solver.SolveDistributed(w, in.prob.X, in.prob.Y, o)
		if err != nil {
			panic("expt: transport: " + err.Error())
		}
		return res
	}

	backends := supportedBackends()
	results := make(map[string]*solver.Result, len(backends))
	for _, b := range backends {
		results[b] = run(b)
	}
	ref := results[backends[0]]

	solveTbl := &trace.Table{
		Title: fmt.Sprintf("Transport backends: RC-SFISTA on covtype (P=%d, k=4, S=2, %d updates)",
			p, maxIter),
		Headers: []string{"backend", "F(w) bits", "w bits equal", "messages", "words", "modeled s"},
	}
	for _, b := range backends {
		res := results[b]
		if bits(res.FinalObj) != bits(ref.FinalObj) || !sameBits(res.W, ref.W) {
			// The golden fixtures pin this repo-wide; a transport that
			// drifts is broken, not interesting.
			panic(fmt.Sprintf("expt: transport: backend %q diverged from %q", b, backends[0]))
		}
		if res.Cost != ref.Cost {
			panic(fmt.Sprintf("expt: transport: backend %q cost %+v != %+v", b, res.Cost, ref.Cost))
		}
		solveTbl.AddRow(b, fmt.Sprintf("%#016x", bits(res.FinalObj)), "yes",
			fmt.Sprintf("%d", res.Cost.Messages), fmt.Sprintf("%d", res.Cost.Words),
			fmt.Sprintf("%.4g", res.ModelSeconds))
	}

	// Calibration: measure the machine each backend actually provides.
	// The chan backend times shared memory, the tcp backend times real
	// loopback sockets; both feed the same alpha + beta*n fit.
	calTbl := &trace.Table{
		Title:   fmt.Sprintf("Calibrated machine parameters (P=%d, measured on this host)", p),
		Headers: []string{"backend", "alpha (s)", "beta (s/word)", "beta f32 (s/word)", "beta i8 (s/word)", "gamma (s/flop)", "assumed alpha", "assumed beta"},
	}
	// Measured against modeled: a scalar, a gradient-sized vector, the
	// d=54 k=8 Hessian batch and a 1 MiB batch, minimum over reps like
	// the calibration sweeps the model was fitted on.
	sizes := []int{1, 1539, 12312, 131072}
	tierList := []dist.Tier{dist.TierF64, dist.TierF32, dist.TierI8}
	checkTbl := &trace.Table{
		Title:   fmt.Sprintf("Shared allreduce, measured vs dist.TierSeconds under the calibrated machine (P=%d, seconds)", p),
		Headers: []string{"backend", "values", "f64 measured", "f64 model", "f32 measured", "f32 model", "i8 measured", "i8 model"},
	}
	cals := map[string]dist.Calibration{}
	for _, b := range backends {
		w, err := dist.NewWorldOn(b, p, cfg.Machine)
		if err != nil {
			panic("expt: transport: " + err.Error())
		}
		var cal dist.Calibration
		measured := make([][]float64, len(sizes)) // [size][tier] seconds, rank 0's
		if err := w.Run(func(c dist.Comm) error {
			got := dist.Calibrate(c, dist.CalibrationOptions{})
			if c.Rank() == 0 {
				cal = got
			}
			for i, n := range sizes {
				row := make([]float64, len(tierList))
				for j, tier := range tierList {
					row[j] = timeSharedAllreduce(c, make([]float64, n), dist.EffectiveTier(tier, n))
				}
				if c.Rank() == 0 {
					measured[i] = row
				}
			}
			return nil
		}); err != nil {
			panic("expt: transport: calibrate: " + err.Error())
		}
		cals[b] = cal
		calTbl.AddRow(b,
			fmt.Sprintf("%.3g", cal.Machine.Alpha), fmt.Sprintf("%.3g", cal.Machine.Beta),
			fmt.Sprintf("%.3g", cal.Machine.BetaF32), fmt.Sprintf("%.3g", cal.Machine.BetaI8),
			fmt.Sprintf("%.3g", cal.Machine.Gamma),
			fmt.Sprintf("%.3g", cfg.Machine.Alpha), fmt.Sprintf("%.3g", cfg.Machine.Beta))
		for i, n := range sizes {
			row := []string{b, fmt.Sprintf("%d", n)}
			for j, tier := range tierList {
				row = append(row, fmt.Sprintf("%.3g", measured[i][j]),
					fmt.Sprintf("%.3g", dist.TierSeconds(cal.Machine, p, n, dist.EffectiveTier(tier, n))))
			}
			checkTbl.AddRow(row...)
		}
	}

	var text strings.Builder
	text.WriteString(solveTbl.Render())
	text.WriteByte('\n')
	text.WriteString(calTbl.Render())
	text.WriteByte('\n')
	text.WriteString(checkTbl.Render())
	text.WriteByte('\n')
	for _, b := range backends {
		text.WriteString(cals[b].String())
		text.WriteByte('\n')
	}
	text.WriteString("Every backend reproduces the same float64 bit patterns because every sum is\n" +
		"taken in ascending rank order — by every receiving rank, or segment by\n" +
		"segment at each segment's owner — regardless of arrival order; only the\n" +
		"measured alpha/beta differ — that is the transport's whole effect.\n")

	return &Report{
		ID:     "transport",
		Title:  "Pluggable transports: bit-identical solves and measured alpha/beta",
		Text:   text.String(),
		Tables: []*trace.Table{solveTbl, calTbl, checkTbl},
	}
}

// timeSharedAllreduce returns the fastest of a few barrier-aligned
// shared allreduces of local at the given tier, in seconds.
func timeSharedAllreduce(c dist.Comm, local []float64, tier dist.Tier) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 10; rep++ {
		c.Barrier()
		start := time.Now()
		dist.AllreduceSharedTier(c, local, tier)
		best = math.Min(best, time.Since(start).Seconds())
	}
	return best
}

// supportedBackends lists the registered backends usable on this host,
// the experiment's sweep axis.
func supportedBackends() []string {
	var names []string
	for _, name := range dist.Backends() {
		b, err := dist.LookupBackend(name)
		if err != nil {
			continue
		}
		if b.Supported() == nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		panic("expt: transport: no supported dist backends")
	}
	return names
}

func bits(v float64) uint64 { return math.Float64bits(v) }

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
