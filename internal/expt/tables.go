package expt

import (
	"fmt"
	"strings"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Table1 verifies the cost model of Table 1 against measured counters:
// RC-SFISTA is run for a fixed iteration budget at several (P, k) and
// the per-rank message, word and flop counters of the simulated
// runtime are compared with the closed forms. Latency and bandwidth
// must match exactly (the report panics otherwise); flops match up to
// a constant factor (the formula is big-O).
func Table1(cfg Config) *Report {
	in := prepare(cfg, "covtype")
	n := 64
	procs := []int{4, 16, 64}
	ks := []int{1, 4, 8}
	if cfg.Scale == Full {
		procs = []int{4, 16, 64, 256}
		ks = []int{1, 4, 8, 16}
	}

	tbl := &trace.Table{
		Title:   "Table 1 verification: measured vs closed-form costs (covtype shape, N=64, S=1, b=0.1)",
		Headers: []string{"P", "k", "L meas", "L form", "L ok", "W meas", "W form", "W/form", "F meas", "F form", "F/form"},
	}
	for _, p := range procs {
		for _, k := range ks {
			meas, form := table1Costs(cfg.NewWorld(p), in.prob, in.optionsForB(cfg, 0.1), n, k)
			if meas.Messages != form.Messages || meas.Words != form.Words {
				panic(fmt.Sprintf("expt: table1: P=%d k=%d charged L=%d W=%d, closed form L=%d W=%d",
					p, k, meas.Messages, meas.Words, form.Messages, form.Words))
			}
			tbl.AddRow(
				fmt.Sprint(p), fmt.Sprint(k),
				fmt.Sprint(meas.Messages), fmt.Sprint(form.Messages), "true",
				fmt.Sprint(meas.Words), fmt.Sprint(form.Words), fmt.Sprintf("%.3f", float64(meas.Words)/float64(form.Words)),
				fmt.Sprint(meas.Flops), fmt.Sprint(form.Flops), fmt.Sprintf("%.2f", float64(meas.Flops)/float64(form.Flops)),
			)
		}
	}
	var b strings.Builder
	b.WriteString(tbl.Render())
	b.WriteString("\nlatency and bandwidth counters match closed form exactly: true\n")
	b.WriteString("W counts the d-word R shipped with each packed H; flop ratio is the big-O constant.\n")
	return &Report{ID: "table1", Title: "Cost model verification (Table 1)", Text: b.String(), Tables: []*trace.Table{tbl}}
}

// table1Costs runs RC-SFISTA in Table 1's configuration — a fixed
// budget of n iterations (Tol = 0), one objective evaluation at the
// end, plain stochastic gradients, S = 1 — at overlap k on world w, and
// returns the cost the engine charged next to the RCSFISTACost closed
// form for the same parameters.
func table1Costs(w dist.World, prob *data.Problem, o solver.Options, n, k int) (meas, form perf.Cost) {
	o.Tol = 0
	o.MaxIter = n
	o.K = k
	o.S = 1
	o.VarianceReduced = false
	o.EvalEvery = n
	res, err := solver.SolveDistributed(w, prob.X, prob.Y, o)
	if err != nil {
		panic("expt: table1: " + err.Error())
	}
	form = perf.RCSFISTACost(perf.AlgoParams{
		N: n, P: w.Size(), D: prob.X.Rows, MBar: int(o.B * float64(prob.X.Cols)),
		Fill: prob.Density(), K: k, S: 1,
	})
	return res.Cost, form
}

// Table2 reproduces the dataset inventory of Table 2 and reports the
// scaled stand-in dimensions this repository instantiates, with the
// measured density of a generated instance against the target.
func Table2(cfg Config) *Report {
	tbl := &trace.Table{
		Title: "Table 2: datasets (paper dimensions) and synthetic stand-ins (this repo)",
		Headers: []string{"dataset", "paper rows", "paper cols", "%nnz f", "paper size",
			"stand-in rows", "stand-in cols", "measured f", "lambda"},
	}
	for _, info := range data.Datasets() {
		m, d := dims(info.Name, cfg.Scale)
		p, err := data.LoadWith(info.Name, m, d, cfg.Seed)
		if err != nil {
			panic("expt: table2: " + err.Error())
		}
		tbl.AddRow(
			info.Name,
			fmt.Sprint(info.PaperRows), fmt.Sprint(info.PaperCols),
			fmt.Sprintf("%.2f%%", 100*info.Density),
			humanBytes(info.PaperSizeBytes()),
			fmt.Sprint(m), fmt.Sprint(d),
			fmt.Sprintf("%.2f%%", 100*p.Density()),
			fmt.Sprintf("%g", info.Lambda),
		)
	}
	return &Report{ID: "table2", Title: "Dataset inventory (Table 2)", Text: tbl.Render(), Tables: []*trace.Table{tbl}}
}

// Bounds evaluates the parameter bounds of Eqs. 25-28 at the paper's
// dataset dimensions on the Comet machine model, reproducing the two
// quantitative anchors of Section 5.3: k <= ~2 for covtype (Eq. 25)
// and S < 7 for mnist with k=1, P=256, N=200 (Eq. 27).
func Bounds(cfg Config) *Report {
	machine := perf.Comet()
	tbl := &trace.Table{
		Title:   "Parameter bounds (Eqs. 25-28) at paper dimensions, Comet machine",
		Headers: []string{"dataset", "d", "k_max (25)", "k_max (26)", "kS bound (27)", "S_max (28)"},
	}
	const nIter, pProcs = 200, 256
	var covK, mnistKS float64
	for _, info := range data.Datasets() {
		mbar := info.PaperRows / 100 // b = 1% (Section 5.4)
		if mbar < 1 {
			mbar = 1
		}
		bounds := perf.ParameterBounds(machine, perf.AlgoParams{
			N: nIter, P: pProcs, D: info.PaperCols, MBar: mbar, Fill: info.Density, K: 1, S: 1,
		})
		if info.Name == "covtype" {
			covK = bounds.KLatencyBandwidth
		}
		if info.Name == "mnist" {
			mnistKS = bounds.KSProduct
		}
		tbl.AddRow(info.Name, fmt.Sprint(info.PaperCols),
			fmtF(bounds.KLatencyBandwidth), fmtF(bounds.KFlops), fmtF(bounds.KSProduct), fmtF(bounds.SMax))
	}
	var b strings.Builder
	b.WriteString(tbl.Render())
	fmt.Fprintf(&b, "\npaper anchors: covtype k_max (Eq. 25) = %.2f (paper: 2); mnist S bound (Eq. 27, k=1) = %.2f (paper: S < 7)\n",
		covK, mnistKS)
	return &Report{ID: "bounds", Title: "Parameter bounds (Eqs. 25-28)", Text: b.String(), Tables: []*trace.Table{tbl}}
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
