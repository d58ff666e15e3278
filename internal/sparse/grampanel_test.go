package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/rng"
)

// fullCSC builds a d x m block that stores every entry, a few of them
// as explicit +0 and -0.
func fullCSC(d, m int, seed uint64) (*CSC, []float64) {
	g := rng.New(seed)
	a := &CSC{Rows: d, Cols: m, ColPtr: make([]int, m+1)}
	for j := 0; j < m; j++ {
		for i := 0; i < d; i++ {
			v := g.NormFloat64()
			switch g.Intn(12) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			a.RowIdx = append(a.RowIdx, i)
			a.Val = append(a.Val, v)
		}
		a.ColPtr[j+1] = len(a.Val)
	}
	y := make([]float64, m)
	for j := range y {
		y[j] = g.NormFloat64()
	}
	return a, y
}

// dropEntry returns a copy of a without the stored entry (i, j).
func dropEntry(a *CSC, i, j int) *CSC {
	b := &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: make([]int, a.Cols+1)}
	for c := 0; c < a.Cols; c++ {
		rows, vals := a.Col(c)
		for k, r := range rows {
			if c == j && r == i {
				continue
			}
			b.RowIdx = append(b.RowIdx, r)
			b.Val = append(b.Val, vals[k])
		}
		b.ColPtr[c+1] = len(b.Val)
	}
	return b
}

// requireSameBits fails unless got and want agree in every bit, the
// sign of a zero included.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), sweep gives %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAgainstSweep runs SampledGramPacked and the reference sweep
// twice each, accumulating, from the same non-zero H and R, and demands
// identical bits and identical billed flops.
func checkAgainstSweep(t *testing.T, a *CSC, y []float64, cols []int, scale float64) {
	t.Helper()
	d := a.Rows
	g := rng.New(uint64(d)*7919 + uint64(len(cols)))
	got, want := mat.NewSymPacked(d), mat.NewSymPacked(d)
	rGot, rWant := make([]float64, d), make([]float64, d)
	for i := range got.Data {
		got.Data[i] = g.NormFloat64()
	}
	for i := range rGot {
		rGot[i] = g.NormFloat64()
	}
	got.Data[0] = math.Copysign(0, -1) // a -0 accumulator must behave as in the sweep
	copy(want.Data, got.Data)
	copy(rWant, rGot)
	var cGot, cWant perf.Cost
	for call := 0; call < 2; call++ {
		SampledGramPacked(a, got, rGot, y, cols, scale, &cGot)
		gramPackedSweep(a, want, rWant, y, cols, scale, &cWant)
	}
	requireSameBits(t, "H", got.Data, want.Data)
	requireSameBits(t, "R", rGot, rWant)
	if cGot.Flops != cWant.Flops {
		t.Fatalf("billed %d flops, sweep bills %d", cGot.Flops, cWant.Flops)
	}
}

// TestPanelGramBitIdenticalToSweep is the fence of the dense-panel
// path: over tile-remainder dimensions (d mod 2 and (d-2) mod 3 in all
// combinations), more than one panel with a ragged last one, a
// repeated column, stored +0/-0 and a non-zero H and R on entry, it
// leaves the bits and the bill of the column sweep.
func TestPanelGramBitIdenticalToSweep(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 6, 7, 54, 191, 192} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			const m = 2*PanelCols + 37
			a, y := fullCSC(d, m, uint64(d))
			if !a.Full() {
				t.Fatal("fullCSC built a block that is not full")
			}
			g := rng.New(uint64(d) + 100)
			cols := g.SampleWithoutReplacement(m, PanelCols+91)
			cols[7] = cols[3] // a column sampled twice
			checkAgainstSweep(t, a, y, cols, 1/float64(len(cols)))
			checkAgainstSweep(t, a, y, cols[:5], 0.2)
			checkAgainstSweep(t, a, y, []int{}, 1)
			checkAgainstSweep(t, a, y, nil, 1/float64(m)) // the FullGramPacked form

			// One missing entry: the block is no longer full and must take
			// the sweep, whose result the reference reproduces trivially —
			// what is checked is that the short column is not read as full.
			short := dropEntry(a, d/2, cols[0])
			if short.Full() {
				t.Fatal("a block with a short column reports Full")
			}
			checkAgainstSweep(t, short, y, cols, 1/float64(len(cols)))
		})
	}
}

// TestFullGramPackedPanelClears: FullGramPacked on a full block clears
// H and R first and then equals the sweep from zero.
func TestFullGramPackedPanelClears(t *testing.T) {
	a, y := fullCSC(9, 300, 5)
	got, want := mat.NewSymPacked(9), mat.NewSymPacked(9)
	rGot, rWant := make([]float64, 9), make([]float64, 9)
	for i := range got.Data {
		got.Data[i] = 7
	}
	rGot[0] = 7
	FullGramPacked(a, got, rGot, y, 1.0/300, nil)
	gramPackedSweep(a, want, rWant, y, nil, 1.0/300, nil)
	requireSameBits(t, "H", got.Data, want.Data)
	requireSameBits(t, "R", rGot, rWant)
}

func TestPanelGramPackedPanics(t *testing.T) {
	full, _ := fullCSC(4, 6, 1)
	for name, f := range map[string]func(){
		"not full":      func() { PanelGramPacked(dropEntry(full, 1, 2), mat.NewSymPacked(4), []int{0}, []float64{1}, nil) },
		"h dimension":   func() { PanelGramPacked(full, mat.NewSymPacked(3), []int{0}, []float64{1}, nil) },
		"weights count": func() { PanelGramPacked(full, mat.NewSymPacked(4), []int{0, 1}, []float64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzSampledGramPacked: for random shapes, densities (full blocks
// among them), values and sample sets, SampledGramPacked equals the
// reference sweep bit for bit — whichever path it took — and the packed
// result equals the upper triangle of the dense kernel's.
func FuzzSampledGramPacked(f *testing.F) {
	f.Add(uint64(1), 5, 40, 17, uint8(255))
	f.Add(uint64(2), 8, 300, 290, uint8(255))
	f.Add(uint64(3), 12, 30, 9, uint8(100))
	f.Add(uint64(4), 1, 3, 3, uint8(255))
	f.Add(uint64(5), 7, 20, 0, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, d, m, n int, density uint8) {
		d, m = abs(d)%24+1, abs(m)%600+1
		n = abs(n) % (m + 1)
		var a *CSC
		var y []float64
		if density == 255 {
			a, y = fullCSC(d, m, seed)
		} else {
			a = randomCSC(d, m, float64(density)/255, seed)
			y = make([]float64, m)
			for j := range y {
				y[j] = float64(j%7) - 3
			}
		}
		g := rng.New(seed ^ 0xabcd)
		cols := make([]int, n) // with replacement: repeats are legal input
		for i := range cols {
			cols[i] = g.Intn(m)
		}
		scale := 1 / float64(n+1)

		got, want := mat.NewSymPacked(d), mat.NewSymPacked(d)
		rGot, rWant := make([]float64, d), make([]float64, d)
		var cGot, cWant perf.Cost
		SampledGramPacked(a, got, rGot, y, cols, scale, &cGot)
		gramPackedSweep(a, want, rWant, y, cols, scale, &cWant)
		requireSameBits(t, "H", got.Data, want.Data)
		requireSameBits(t, "R", rGot, rWant)
		if cGot.Flops != cWant.Flops {
			t.Fatalf("billed %d flops, sweep bills %d", cGot.Flops, cWant.Flops)
		}

		hd, rd := mat.NewDense(d, d), make([]float64, d)
		sampledGramDense(a, hd, rd, y, cols, scale, nil)
		requireSameBits(t, "H vs dense upper triangle", got.Data, upper(hd).Data)
		requireSameBits(t, "R vs dense", rGot, rd)
	})
}

func abs(x int) int {
	if x < 0 {
		if x == math.MinInt {
			return 0
		}
		return -x
	}
	return x
}

// BenchmarkSampledGramPacked times one stage-B round — k = 8 slot fills
// over distinct samples — at one rank's share of the repo benchmark's
// shapes, on both sides of the Full() selection: the two dense shapes
// (ls_fill_chan's 192 x 2000 block at 200 columns a slot, and a d = 392
// block whose 400-column slots span two panels) take the panel kernel;
// the two sparse ones (ls_bw_tcp's mnist block, f = 0.19, and
// ls_lat_tcp's covtype block, f = 0.22) take the column sweep.
func BenchmarkSampledGramPacked(b *testing.B) {
	for _, bc := range []struct {
		name    string
		d, m, n int
		density float64
	}{
		{"dense192", 192, 2000, 200, 1},
		{"dense392", 392, 4000, 400, 1},
		{"sparse392_f0.19", 392, 4000, 400, 0.19},
		{"sparse54_f0.22", 54, 12000, 1200, 0.22},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var a *CSC
			if bc.density == 1 {
				a, _ = fullCSC(bc.d, bc.m, 1)
			} else {
				a = randomCSC(bc.d, bc.m, bc.density, 1)
			}
			y := make([]float64, bc.m)
			g := rng.New(2)
			var slots [8][]int
			for j := range slots {
				slots[j] = g.SampleWithoutReplacement(bc.m, bc.n)
			}
			h, r := mat.NewSymPacked(bc.d), make([]float64, bc.d)
			scale := 1 / float64(bc.n)
			var c perf.Cost
			round := func() {
				for _, cols := range slots {
					SampledGramPacked(a, h, r, y, cols, scale, &c)
				}
			}
			round() // page the block in, size the panel scratch
			c = perf.Cost{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(c.Flops)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}
