package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// passes indexes a result file's traced or untraced passes by workload.
func (rf *resultFile) passes(traced bool) map[string]*report {
	out := map[string]*report{}
	for _, p := range rf.Passes {
		if p.Traced == traced {
			out[p.Workload] = p
		}
	}
	return out
}

// exactCounts are the per-layer counts that repeat exactly between
// runs of one program; -compare lists the ones that moved. They do not
// affect the exit status: a change may move them on purpose.
var exactCounts = []string{
	"perf.flops", "perf.msgs", "perf.words", "solver.rounds", "solver.updates",
	"dist.calls_per_solve", "dist.words_in_per_solve",
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive is worse whichever direction is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every end-to-end metric of every workload
// both files hold, the two values, how much worse the second is and the
// bound, and returns 1 when any pairing is outside its bound or the
// second file has failed ops.
func compareFiles(w, stderr io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Record.Commit, a.Record.Seed, b.Record.Commit, b.Record.Seed)
	fmt.Fprintf(w, "%-14s %-10s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	pa, pb := a.passes(false), b.passes(false)
	ta, tb := a.passes(true), b.passes(true)
	status, pairs := 0, 0
	for _, wl := range workloads {
		ra, rb := pa[wl.Name], pb[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s b has %d failed ops of %d\n", wl.Name, rb.Failed, rb.Attempted)
			status = 1
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse := worsening(d, va.Value, vb.Value)
			verdict := ""
			if worse > d.Bound {
				verdict = "  OUTSIDE BOUND"
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-10s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				wl.Name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, verdict)
			pairs++
		}
		if ra, rb := ta[wl.Name], tb[wl.Name]; ra != nil && rb != nil {
			for _, name := range exactCounts {
				if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
					fmt.Fprintf(w, "%-14s count %s moved: %.17g -> %.17g\n", wl.Name, name, va, vb)
				}
			}
		}
	}
	if pairs == 0 {
		fmt.Fprintln(w, "the two files share no end-to-end pass")
		return 2
	}
	return status
}
