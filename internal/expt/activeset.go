package expt

import (
	"fmt"
	"math"
	"strings"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// ActiveSet measures the dynamic-screening engine (Options.ActiveSet):
// RC-SFISTA on a sparse synthetic lasso instance at P = 8, screening on
// vs off. The screened run agrees on a working set A each round and
// ships the |A| x |A| reduced Gram batch instead of the dense one, so
// the per-round payload collapses from k(d(d+1)/2 + d) words toward
// k(|A|(|A|+1)/2 + d) as the iterate support settles — while the
// round-boundary exact KKT check keeps the trajectory on the dense
// optimum (the report panics if the final objectives diverge beyond
// 1e-10 or the payload fails to shrink below a quarter of dense). A
// third run stacks Options.CompressTier = "f32" on the screened
// engine: the reduced batch ships as float32 with error feedback, which
// must halve the remaining batch words and stay within 1e-6 of the
// dense optimum.
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

	const k = 4
	denseWords := int64(k * (d*(d+1)/2 + d))
	tbl := &trace.Table{
		Title:   fmt.Sprintf("Active-set screening: per-round batch payload (sparse synthetic, d=%d, P=%d, k=%d)", d, p, k),
		Headers: []string{"round", "|A|", "batch words", "f32 words", "i8 words", "dense words", "ratio", "relerr"},
	}
	var lastRatio float64
	step := len(act.Trace.Points)/12 + 1
	for i, pt := range act.Trace.Points {
		if pt.Active == 0 {
			continue
		}
		words := perf.ActiveSetRoundWords(d, k, pt.Active)
		lastRatio = float64(words) / float64(denseWords)
		// The shrink happens in the first rounds; show those densely,
		// then sample.
		if i >= 6 && i%step != 0 && i != len(act.Trace.Points)-1 {
			continue
		}
		tbl.AddRow(
			fmt.Sprintf("%d", pt.Round),
			fmt.Sprintf("%d", pt.Active),
			fmt.Sprintf("%d", words),
			fmt.Sprintf("%d", perf.ActiveSetRoundWordsF32(d, k, pt.Active)),
			fmt.Sprintf("%d", perf.ActiveSetRoundWordsI8(d, k, pt.Active)),
			fmt.Sprintf("%d", denseWords),
			fmt.Sprintf("%.2f", float64(words)/float64(denseWords)),
			fmt.Sprintf("%.2e", pt.RelErr),
		)
	}
	if lastRatio > 0.25 {
		panic(fmt.Sprintf("expt: activeset: final-round payload is %.0f%% of dense, want <= 25%%",
			100*lastRatio))
	}

	series := []*trace.Series{dense.Trace, act.Trace, comp.Trace, qi8.Trace, auto.Trace}
	var text strings.Builder
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
		"active+i8 %d (%.1fx less), active+auto %d; "+
		"final objectives agree to %.1e (f32 %.1e, i8 %.1e, auto %.1e); "+
		"modeled time: auto %.4gs vs fixed f32 %.4gs; %d KKT re-expansion(s)\n",
		dense.Cost.Words, act.Cost.Words,
		float64(dense.Cost.Words)/float64(act.Cost.Words),
		comp.Cost.Words,
		float64(dense.Cost.Words)/float64(comp.Cost.Words),
		qi8.Cost.Words,
		float64(dense.Cost.Words)/float64(qi8.Cost.Words),
		auto.Cost.Words,
		math.Abs(act.FinalObj-dense.FinalObj),
		math.Abs(comp.FinalObj-dense.FinalObj),
		math.Abs(qi8.FinalObj-dense.FinalObj),
		math.Abs(auto.FinalObj-dense.FinalObj),
		auto.ModelSeconds, comp.ModelSeconds, expands)
	text.WriteString("\nThe working set starts at d (nothing screenable at w = 0 beyond the " +
		"gradient rule) and collapses to the optimum's support plus the margin band; the " +
		"batch payload shrinks quadratically with it. The exact round-boundary KKT check " +
		"makes the screen safe — any violation rewinds and redoes the round on the expanded " +
		"set — so the screened trajectory lands on the dense optimum, not near it. " +
		"Stacking CompressTier on top ships the reduced batch through the quantized " +
		"collective ladder: f32 halves the remaining batch words at 1e-6 accuracy, the " +
		"dithered int8 tier cuts them ~8x at 1e-5, and the auto policy picks the cheapest " +
		"rung the convergence state permits per collective, beating fixed f32 on modeled time.\n")

	return &Report{
		ID:     "activeset",
		Title:  "Active-set reduced subproblems: dynamic screening shrinks the allreduce payload",
		Text:   text.String(),
		Tables: []*trace.Table{tbl},
		Series: series,
		Figures: []Figure{{
			Title:  fmt.Sprintf("RC-SFISTA active-set vs dense (sparse synthetic, P=%d)", p),
			Series: series,
			Axis:   trace.ByModelTime,
		}},
	}
}
