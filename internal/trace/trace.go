// Package trace records convergence histories — objective value and
// relative objective error against iterations, communication rounds,
// modeled time and wall-clock time — and renders them as the ASCII
// tables and line charts the experiment harness prints for each paper
// figure. CSV export is provided for external plotting.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one convergence sample.
type Point struct {
	// Iter is the (inner) iteration index n.
	Iter int
	// Round is the communication round index (Iter/k for RC-SFISTA).
	Round int
	// Obj is the objective value F(w).
	Obj float64
	// RelErr is |(F(w) - F*) / F*| when F* is known, else NaN.
	RelErr float64
	// ModelSec is the modeled alpha-beta-gamma time at this point.
	ModelSec float64
	// WallSec is the measured wall-clock time at this point.
	WallSec float64
	// Active is the working-set size |A| at this point for solvers
	// running with dynamic screening (Options.ActiveSet); 0 means the
	// solver ran dense (no screening).
	Active int
}

// Event records one discrete incident along a run — an injected
// communication fault or the solver's recovery decision — anchored to
// the same axes as Points. Kind is a short tag: the dist.FaultKind
// string for faults ("drop", "corrupt", "crash", "straggler") or a
// recovery tag ("retry-ok", "degrade", "skip").
type Event struct {
	// Round and Iter locate the event on the convergence axes.
	Round, Iter int
	// Kind tags the event class.
	Kind string
	// Rank is the victim/actor rank, or -1 when global.
	Rank int
	// Attempt is the zero-based attempt within the round (faults only).
	Attempt int
	// StallSec is the modeled waiting the event charged.
	StallSec float64
	// Detail carries free-form context (e.g. the stale-reuse depth).
	Detail string
}

// Series is a named sequence of convergence samples plus the discrete
// events that occurred along the run.
type Series struct {
	Name   string
	Points []Point
	Events []Event
}

// Append adds a sample.
func (s *Series) Append(p Point) { s.Points = append(s.Points, p) }

// AppendEvent adds a discrete event.
func (s *Series) AppendEvent(e Event) { s.Events = append(s.Events, e) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// FirstBelow returns the first sample whose RelErr is at or below tol,
// and ok=false if none reaches it.
func (s *Series) FirstBelow(tol float64) (Point, bool) {
	for _, p := range s.Points {
		if !math.IsNaN(p.RelErr) && p.RelErr <= tol {
			return p, true
		}
	}
	return Point{}, false
}

// Table is a simple named-column table used for the paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// SeriesCSV renders a set of series as long-format CSV
// (series,iter,round,obj,relerr,model_sec,wall_sec,active).
func SeriesCSV(set []*Series) string {
	var b strings.Builder
	b.WriteString("series,iter,round,obj,relerr,model_sec,wall_sec,active\n")
	for _, s := range set {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%d,%d,%.10g,%.10g,%.10g,%.10g,%d\n",
				s.Name, p.Iter, p.Round, p.Obj, p.RelErr, p.ModelSec, p.WallSec, p.Active)
		}
	}
	return b.String()
}

// EventsCSV renders the events of a set of series as long-format CSV
// (series,round,iter,kind,rank,attempt,stall_sec,detail).
func EventsCSV(set []*Series) string {
	var b strings.Builder
	b.WriteString("series,round,iter,kind,rank,attempt,stall_sec,detail\n")
	for _, s := range set {
		for _, e := range s.Events {
			fmt.Fprintf(&b, "%s,%d,%d,%s,%d,%d,%.10g,%s\n",
				s.Name, e.Round, e.Iter, e.Kind, e.Rank, e.Attempt, e.StallSec, e.Detail)
		}
	}
	return b.String()
}

// clampIdx converts a possibly out-of-range or non-finite position to
// a valid grid index in [0, max].
func clampIdx(v float64, max int) int {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	i := int(v)
	if i > max {
		return max
	}
	return i
}

// Axis selects the x quantity of a plot.
type Axis int

// Plot axes.
const (
	ByIter Axis = iota
	ByRound
	ByModelTime
	ByWallTime
)

func (a Axis) value(p Point) float64 {
	switch a {
	case ByIter:
		return float64(p.Iter)
	case ByRound:
		return float64(p.Round)
	case ByModelTime:
		return p.ModelSec
	case ByWallTime:
		return p.WallSec
	default:
		return float64(p.Iter)
	}
}

func (a Axis) label() string {
	switch a {
	case ByIter:
		return "iteration"
	case ByRound:
		return "round"
	case ByModelTime:
		return "modeled seconds"
	case ByWallTime:
		return "wall seconds"
	default:
		return "x"
	}
}

// PlotRelErr renders an ASCII log10(relerr)-vs-axis line chart of the
// series set, one glyph per series, width x height characters. Points
// with non-positive or NaN relerr are dropped (they are at or below
// machine precision of the reference optimum).
func PlotRelErr(title string, set []*Series, axis Axis, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	glyphs := "*o+x#@%&"
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	type xy struct{ x, y float64 }
	pts := make([][]xy, len(set))
	for si, s := range set {
		for _, p := range s.Points {
			if math.IsNaN(p.RelErr) || p.RelErr <= 0 || math.IsInf(p.RelErr, 0) {
				continue
			}
			x := axis.value(p)
			y := math.Log10(p.RelErr)
			if math.IsInf(x, 0) || math.IsNaN(x) {
				continue
			}
			pts[si] = append(pts[si], xy{x, y})
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if math.IsInf(xmin, 1) {
		b.WriteString("(no positive relative-error samples)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, sp := range pts {
		g := glyphs[si%len(glyphs)]
		for _, p := range sp {
			col := clampIdx((p.x-xmin)/(xmax-xmin)*float64(width-1), width-1)
			row := clampIdx((ymax-p.y)/(ymax-ymin)*float64(height-1), height-1)
			grid[row][col] = g
		}
	}
	for i, row := range grid {
		yv := ymax - (ymax-ymin)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "1e%+5.1f |%s|\n", yv, string(row))
	}
	fmt.Fprintf(&b, "        %s\n", strings.Repeat("-", width+2))
	fmt.Fprintf(&b, "        %s: %.4g .. %.4g\n", axis.label(), xmin, xmax)
	names := make([]string, 0, len(set))
	for si, s := range set {
		names = append(names, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "        legend: %s\n", strings.Join(names, "  "))
	return b.String()
}
