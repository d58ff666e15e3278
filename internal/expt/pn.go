package expt

import (
	"fmt"
	"strings"

	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/trace"
)

// Figure7 reproduces Figure 7: Proximal Newton with RC-SFISTA as inner
// solver versus Proximal Newton with FISTA as inner solver, at high
// processor count. The baseline (k = 1) pays one Hessian allreduce and
// one exact-gradient allreduce per outer iteration; the RC variant
// batches k outer iterations' Hessians into one allreduce, cutting the
// latency term by O(k) as long as latency dominates (Section 5.5).
func Figure7(cfg Config) *Report {
	p := 32
	maxOuter := 600
	if cfg.Scale == Full {
		p = 512
		maxOuter = 1500
	}
	ks := []int{2, 4, 8}
	const innerIter = 5 // tuned inner-solver iteration count (Section 5.5)
	tbl := &trace.Table{
		Title: fmt.Sprintf("Figure 7: PN speedup with RC-SFISTA inner solver vs FISTA inner solver (P=%d, T=%d, tol=1e-2)",
			p, innerIter),
		Headers: append([]string{"dataset", "PN-FISTA model s"}, kHeaders(ks)...),
	}
	for _, name := range comparisonDatasets {
		in := prepare(cfg, name)
		base := runPN(cfg, in, p, 1, innerIter, maxOuter)
		row := []string{name, fmt.Sprintf("%.3g", base)}
		for _, k := range ks {
			t := runPN(cfg, in, p, k, innerIter, maxOuter)
			if base <= 0 || t <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2fx", perf.Speedup(base, t)))
		}
		tbl.AddRow(row...)
	}
	var bld strings.Builder
	bld.WriteString(tbl.Render())
	bld.WriteString("\nspeedup grows with k while the latency of the per-outer-iteration allreduce dominates.\n")
	return &Report{ID: "figure7", Title: "Proximal Newton inner-solver comparison (Figure 7)",
		Text: bld.String(), Tables: []*trace.Table{tbl}}
}

// runPN runs the distributed PN driver to tol=1e-2 and returns the
// modeled seconds at the first point below tolerance (-1 if the budget
// runs out).
func runPN(cfg Config, in *instance, p, k, innerIter, maxOuter int) float64 {
	o := solver.DistPNOptions{
		Lambda:    in.prob.Lambda,
		Gamma:     in.gammaForB(0.1),
		B:         0.1,
		Tol:       1e-2,
		FStar:     in.fstar,
		Seed:      cfg.Seed,
		OuterIter: maxOuter,
		InnerIter: innerIter,
		K:         k,
	}
	w := cfg.NewWorld(p)
	res, err := solver.SolvePNDistributed(w, in.prob.X, in.prob.Y, o)
	if err != nil {
		panic("expt: figure7: " + err.Error())
	}
	if pt, ok := res.Trace.FirstBelow(1e-2); ok {
		return pt.ModelSec
	}
	return -1
}

// All runs every experiment and returns the reports in paper order.
func All(cfg Config) []*Report {
	return []*Report{
		Table1(cfg),
		Table2(cfg),
		Bounds(cfg),
		Figure2a(cfg),
		Figure2b(cfg),
		Figure3(cfg),
		Figure4(cfg),
		Figure5(cfg),
		Figure6(cfg),
		Table3(cfg),
		Figure7(cfg),
		Scaling(cfg),
		Machines(cfg),
		FaultSweep(cfg),
		ActiveSet(cfg),
		Transport(cfg),
		Serving(cfg),
		Scenarios(cfg),
	}
}

// ByID returns the named experiment driver, or nil.
func ByID(id string) func(Config) *Report {
	m := map[string]func(Config) *Report{
		"table1":    Table1,
		"table2":    Table2,
		"bounds":    Bounds,
		"figure2a":  Figure2a,
		"figure2b":  Figure2b,
		"figure3":   Figure3,
		"figure4":   Figure4,
		"figure5":   Figure5,
		"figure6":   Figure6,
		"table3":    Table3,
		"figure7":   Figure7,
		"scaling":   Scaling,
		"machines":  Machines,
		"faults":    FaultSweep,
		"activeset": ActiveSet,
		"transport": Transport,
		"serving":   Serving,
		"scenarios": Scenarios,
	}
	return m[id]
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	return []string{"table1", "table2", "bounds", "figure2a", "figure2b",
		"figure3", "figure4", "figure5", "figure6", "table3", "figure7",
		"scaling", "machines", "faults", "activeset", "transport", "serving", "scenarios"}
}

var _ = trace.ByModelTime // keep trace linked for plot axes used above
