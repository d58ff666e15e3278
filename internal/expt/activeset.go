package expt

import (
	"fmt"
	"math"
	"strings"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// ActiveSet measures the dynamic-screening engine (Options.ActiveSet):
// RC-SFISTA on a sparse synthetic lasso instance at P = 8, screening on
// vs off. The screened run ships the |A| x |A| reduced Gram batch, so
// each round's slot shrinks from d(d+1)/2 + d words toward
// |A|(|A|+1)/2 + d as the iterate support settles, while the windowed
// exact-KKT scan (one exact-gradient allreduce per window; a violation
// rewinds the window and redoes it on the expanded set) keeps the
// trajectory on the dense optimum. Every word and message in the report
// is what the engine charged (Result.Cost); the per-round table only
// reads |A| off the trace. The report panics if the final objectives
// diverge beyond 1e-10 or the screened run's total words exceed a
// quarter of dense. Three more runs stack Options.CompressTier = "f32",
// "i8" and "auto" on the screened engine: each rung must strictly cut
// the words and stay within its accuracy of the dense optimum, and auto
// must beat fixed f32 on modeled time.
func ActiveSet(cfg Config) *Report {
	const p = 8
	d, m, maxIter := 96, 4000, 1600
	if cfg.Scale == Full {
		d, m, maxIter = 192, 8000, 4800
	}
	prob := data.Generate(data.GenSpec{
		Name: "sparse-synthetic", D: d, M: m, Density: 0.2, TrueNnz: d / 12,
		NoiseStd: 0.01, Lambda: 0.012, Seed: cfg.Seed,
	})
	l := solver.SampledLipschitz(prob.X, prob.Y, 0.2, 8, 777)
	_, fstar := solver.Reference(prob.X, prob.Y, prob.Lambda, 4000)

	run := func(active bool, tier string) *solver.Result {
		o := solver.Defaults()
		o.Lambda = prob.Lambda
		o.Gamma = solver.GammaFromLipschitz(l)
		o.FStar = fstar
		o.Tol = 0 // fixed budget: compare equal-work runs
		o.MaxIter = maxIter
		o.B = 0.2
		o.K = 4
		o.S = 2
		o.EvalEvery = o.K * o.S // one checkpoint per round: |A| per round
		o.ActiveSet = active
		o.CompressTier = tier
		switch {
		case active && tier != "":
			o.TraceName = "active-set+" + tier
		case active:
			o.TraceName = "active-set"
		default:
			o.TraceName = "dense"
		}
		w := cfg.NewWorld(p)
		res, err := solver.SolveDistributed(w, prob.X, prob.Y, o)
		if err != nil {
			panic("expt: activeset: " + err.Error())
		}
		return res
	}
	dense := run(false, "")
	act := run(true, "")
	comp := run(true, "f32")
	qi8 := run(true, "i8")
	auto := run(true, "auto")

	if diff := math.Abs(act.FinalObj - dense.FinalObj); diff > 1e-10 {
		// Screening must be exact, not approximate; a drifted optimum is
		// a bug, not a data point.
		panic(fmt.Sprintf("expt: activeset: |F_active - F_dense| = %g > 1e-10", diff))
	}
	if diff := math.Abs(comp.FinalObj - dense.FinalObj); diff > 1e-6 {
		// The float32 error-feedback path is lossy by design but must
		// track the full-precision optimum to quantization tolerance.
		panic(fmt.Sprintf("expt: activeset: |F_compressed - F_dense| = %g > 1e-6", diff))
	}
	if comp.Cost.Words >= act.Cost.Words {
		panic(fmt.Sprintf("expt: activeset: compressed run shipped %d words, uncompressed active %d — compression must shrink the wire",
			comp.Cost.Words, act.Cost.Words))
	}
	if diff := math.Abs(qi8.FinalObj - dense.FinalObj); diff > 1e-5 {
		// One dithered int8 step per value per round, absorbed by error
		// feedback: the i8 ladder rung promises 1e-5 agreement.
		panic(fmt.Sprintf("expt: activeset: |F_i8 - F_dense| = %g > 1e-5", diff))
	}
	if qi8.Cost.Words >= comp.Cost.Words {
		panic(fmt.Sprintf("expt: activeset: i8 run shipped %d words, f32 %d — the ladder must strictly shrink",
			qi8.Cost.Words, comp.Cost.Words))
	}
	if diff := math.Abs(auto.FinalObj - dense.FinalObj); diff > 1e-5 {
		panic(fmt.Sprintf("expt: activeset: |F_auto - F_dense| = %g > 1e-5", diff))
	}
	if auto.ModelSeconds >= comp.ModelSeconds {
		// The point of the cost-model-driven policy: picking i8 while the
		// gradient dominates the quantization noise must beat a fixed f32
		// tier on modeled time, not just on words.
		panic(fmt.Sprintf("expt: activeset: auto tier modeled %.4gs, fixed f32 %.4gs — auto must win",
			auto.ModelSeconds, comp.ModelSeconds))
	}

	runs := []struct {
		name string
		res  *solver.Result
	}{{"dense", dense}, {"active", act}, {"active+f32", comp}, {"active+i8", qi8}, {"active+auto", auto}}
	costs := &trace.Table{
		Title:   fmt.Sprintf("Active-set screening: engine-charged totals (sparse synthetic, d=%d, P=%d, k=4, %d iterations)", d, p, maxIter),
		Headers: []string{"run", "messages", "words", "words/dense", "modeled s", "|F - F_dense|"},
	}
	for _, r := range runs {
		costs.AddRow(r.name,
			fmt.Sprintf("%d", r.res.Cost.Messages),
			fmt.Sprintf("%d", r.res.Cost.Words),
			fmt.Sprintf("%.4f", float64(r.res.Cost.Words)/float64(dense.Cost.Words)),
			fmt.Sprintf("%.4g", r.res.ModelSeconds),
			fmt.Sprintf("%.1e", math.Abs(r.res.FinalObj-dense.FinalObj)),
		)
	}
	if share := float64(act.Cost.Words) / float64(dense.Cost.Words); share > 0.25 {
		panic(fmt.Sprintf("expt: activeset: screened run shipped %.0f%% of dense words, want <= 25%%", 100*share))
	}

	tbl := &trace.Table{
		Title:   fmt.Sprintf("Active-set screening: working set by round (d=%d)", d),
		Headers: []string{"round", "|A|", "relerr"},
	}
	step := len(act.Trace.Points)/12 + 1
	for i, pt := range act.Trace.Points {
		// The shrink happens in the first rounds; show those densely,
		// then sample.
		if pt.Active == 0 || (i >= 6 && i%step != 0 && i != len(act.Trace.Points)-1) {
			continue
		}
		tbl.AddRow(fmt.Sprintf("%d", pt.Round), fmt.Sprintf("%d", pt.Active), fmt.Sprintf("%.2e", pt.RelErr))
	}

	series := []*trace.Series{dense.Trace, act.Trace, comp.Trace, qi8.Trace, auto.Trace}
	var text strings.Builder
	text.WriteString(costs.Render())
	text.WriteByte('\n')
	text.WriteString(tbl.Render())
	text.WriteByte('\n')
	text.WriteString(trace.PlotRelErr("active-set vs dense: relative error by modeled time",
		series, trace.ByModelTime, 72, 18))
	var expands int
	for _, ev := range act.Trace.Events {
		if ev.Kind == "expand" {
			expands++
		}
	}
	fmt.Fprintf(&text, "\ntotal words: dense %d, active %d (%.1fx less), active+f32 %d (%.1fx less), "+
		"active+i8 %d (%.1fx less), active+auto %d; modeled time: auto %.4gs vs fixed f32 %.4gs; "+
		"%d KKT re-expansion(s)\n",
		dense.Cost.Words, act.Cost.Words,
		float64(dense.Cost.Words)/float64(act.Cost.Words),
		comp.Cost.Words,
		float64(dense.Cost.Words)/float64(comp.Cost.Words),
		qi8.Cost.Words,
		float64(dense.Cost.Words)/float64(qi8.Cost.Words),
		auto.Cost.Words,
		auto.ModelSeconds, comp.ModelSeconds, expands)
	text.WriteString("\nThe working set starts at d (nothing screenable at w = 0 beyond the " +
		"gradient rule) and collapses to the optimum's support plus the margin band; each " +
		"round's batch shrinks quadratically with it. Rounds run in windows with the working " +
		"set frozen; an exact full-gradient KKT scan closes each window, and a violated " +
		"screened coordinate rewinds the window and redoes it on the expanded set, so the " +
		"screened trajectory lands on the dense optimum, not near it. Stacking CompressTier " +
		"on top ships every collective through the quantized ladder: f32 halves the " +
		"remaining words at 1e-6 accuracy, the dithered int8 tier cuts the batch ~8x at " +
		"1e-5, and the auto policy picks the cheapest rung the convergence state permits per " +
		"collective, beating fixed f32 on modeled time.\n")

	return &Report{
		ID:     "activeset",
		Title:  "Active-set reduced subproblems: dynamic screening shrinks the allreduce payload",
		Text:   text.String(),
		Tables: []*trace.Table{costs, tbl},
		Series: series,
		Figures: []Figure{{
			Title:  fmt.Sprintf("RC-SFISTA active-set vs dense (sparse synthetic, P=%d)", p),
			Series: series,
			Axis:   trace.ByModelTime,
		}},
	}
}
