package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of samples by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(samples []float64) float64 { return quantile(samples, 0.75) - quantile(samples, 0.25) }

// value is one reported metric: the number, and for timings taken from
// a sample the sample count and its interquartile range.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	IQR   float64 `json:"iqr,omitempty"`
}

// report is the outcome of one pass (traced or untraced) of one
// workload.
type report struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Measured lists, in registry order, the metrics this workload
	// reports; the rest of Metrics is zero fill.
	Measured []string `json:"measured"`
	// Notes are caveats printed with the metrics (what a number does
	// not cover); Failures describe each failed op.
	Notes    []string `json:"notes,omitempty"`
	Failures []string `json:"failures,omitempty"`

	// defs is the registry list of this pass; errs are harness bugs
	// (an unregistered or repeated metric, a failed replay), which fail
	// the pass like a failed op.
	defs []metricDef
	errs []string
}

func newReport(name string, traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{Workload: name, Traced: traced, Metrics: map[string]value{}, defs: defs}
}

func (r *report) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// set records a metric. Setting an unregistered name, or one name
// twice, is a harness bug and fails the pass.
func (r *report) set(name string, v float64) { r.setN(name, v, 0, 0) }

// setSample records the median of a timing sample with its count and
// IQR.
func (r *report) setSample(name string, samples []float64) {
	r.setN(name, median(samples), len(samples), iqr(samples))
}

func (r *report) setN(name string, v float64, n int, spread float64) {
	i := slices.IndexFunc(r.defs, func(d metricDef) bool { return d.Name == name })
	if i < 0 {
		r.errorf("metric %q is not in the registry for this pass", name)
		return
	}
	if _, dup := r.Metrics[name]; dup {
		r.errorf("metric %q set twice", name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.errorf("metric %q is %v", name, v)
		v = 0
	}
	r.Metrics[name] = value{Value: v, Unit: r.defs[i].Unit, N: n, IQR: spread}
}

// fail counts one failed op with its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills every registered metric the workload does not report
// with 0: the driver wants the full list on every run.
func (r *report) finish() {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; ok {
			r.Measured = append(r.Measured, d.Name)
			continue
		}
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
}

// correct reports whether the pass had no failed op and no harness
// error.
func (r *report) correct() bool { return r.Failed == 0 && len(r.errs) == 0 && r.Attempted > 0 }

// print writes the measured metrics by name with units.
func (r *report) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): %d ops attempted, %d failed\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, name := range r.Measured {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s", name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d iqr=%.4g", v.N, v.IQR)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  HARNESS ERROR: %s\n", e)
	}
}
