package trace

import (
	"math"
	"strings"
	"testing"
)

func sampleSeries(n int) *Series {
	s := &Series{Name: "test"}
	for i := 0; i < n; i++ {
		s.Append(Point{
			Iter: i, Round: i / 4,
			Obj:      1.0 / float64(i+1),
			RelErr:   math.Pow(10, -float64(i)/10),
			ModelSec: float64(i) * 0.001,
			WallSec:  float64(i) * 0.002,
		})
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := sampleSeries(5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestFirstBelow(t *testing.T) {
	s := sampleSeries(50)
	p, ok := s.FirstBelow(1e-2)
	if !ok {
		t.Fatal("threshold never reached")
	}
	if p.RelErr > 1e-2 {
		t.Fatalf("FirstBelow returned %g", p.RelErr)
	}
	if p.Iter > 0 && s.Points[p.Iter-1].RelErr <= 1e-2 {
		t.Fatal("not the first crossing")
	}
	if _, ok := s.FirstBelow(1e-30); ok {
		t.Fatal("unreachable threshold reported reached")
	}
}

func TestFirstBelowSkipsNaN(t *testing.T) {
	s := &Series{}
	s.Append(Point{Iter: 0, RelErr: math.NaN()})
	s.Append(Point{Iter: 1, RelErr: 0.5})
	p, ok := s.FirstBelow(0.9)
	if !ok || p.Iter != 1 {
		t.Fatalf("FirstBelow = %+v, %v", p, ok)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "long-header"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	out := tbl.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "long-header") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
	// Aligned columns: header and rows share the first column width.
	if !strings.HasPrefix(lines[3], "1     ") {
		t.Fatalf("misaligned: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"x", "y"}}
	tbl.AddRow("1", "2")
	got := tbl.CSV()
	if got != "x,y\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := sampleSeries(3)
	out := SeriesCSV([]*Series{s})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "series,iter,round") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "test,0,0,") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestPlotRelErrBasic(t *testing.T) {
	out := PlotRelErr("title", []*Series{sampleSeries(40)}, ByIter, 40, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "legend") {
		t.Fatalf("plot:\n%s", out)
	}
	if !strings.Contains(out, "iteration") {
		t.Fatal("x label missing")
	}
}

func TestPlotRelErrEmptyAndDegenerate(t *testing.T) {
	// Must not panic on: no points, all-NaN, all equal, Inf values.
	empty := &Series{Name: "e"}
	out := PlotRelErr("t", []*Series{empty}, ByIter, 40, 10)
	if !strings.Contains(out, "no positive") {
		t.Fatalf("empty plot: %s", out)
	}
	nan := &Series{Name: "n"}
	nan.Append(Point{Iter: 1, RelErr: math.NaN()})
	nan.Append(Point{Iter: 2, RelErr: math.Inf(1)})
	nan.Append(Point{Iter: 3, RelErr: -1})
	_ = PlotRelErr("t", []*Series{nan}, ByIter, 40, 10)

	flat := &Series{Name: "f"}
	flat.Append(Point{Iter: 0, RelErr: 0.5})
	flat.Append(Point{Iter: 0, RelErr: 0.5})
	_ = PlotRelErr("t", []*Series{flat}, ByIter, 40, 10)
}

func TestPlotAxes(t *testing.T) {
	s := sampleSeries(20)
	for _, ax := range []Axis{ByIter, ByRound, ByModelTime, ByWallTime} {
		out := PlotRelErr("t", []*Series{s}, ax, 30, 8)
		if !strings.Contains(out, ax.label()) {
			t.Fatalf("axis %v label missing", ax)
		}
	}
}

func TestPlotMinimumDimensions(t *testing.T) {
	// Tiny requested dimensions are clamped, not crashed.
	_ = PlotRelErr("t", []*Series{sampleSeries(5)}, ByIter, 1, 1)
}

func TestClampIdx(t *testing.T) {
	if clampIdx(math.NaN(), 10) != 0 || clampIdx(-5, 10) != 0 {
		t.Fatal("clamp low")
	}
	if clampIdx(99, 10) != 10 {
		t.Fatal("clamp high")
	}
	if clampIdx(3.7, 10) != 3 {
		t.Fatal("clamp mid")
	}
}
