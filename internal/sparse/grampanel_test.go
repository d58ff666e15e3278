package sparse

import (
	"fmt"
	"math"
	"slices"
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

// FuzzSampledGramPacked: for random shapes up to d = 80 (so the
// kernel's four-row blocks, its one-to-three-row remainder and the last
// row's window are all reached), densities (full blocks among them),
// values with stored +0 and -0 among them, and sample sets, accumulating
// onto a non-zero H and R, SampledGramPacked equals the oracle sweep bit
// for bit and flop for flop — whichever path it took — and the packed
// result equals the upper triangle of the dense kernel's started from
// the same symmetric H.
func FuzzSampledGramPacked(f *testing.F) {
	f.Add(uint64(1), 5, 40, 17, uint8(255))
	f.Add(uint64(2), 8, 300, 290, uint8(255))
	f.Add(uint64(3), 12, 30, 9, uint8(100))
	f.Add(uint64(4), 1, 3, 3, uint8(255))
	f.Add(uint64(5), 7, 20, 0, uint8(0))
	f.Add(uint64(6), 79, 60, 40, uint8(200))
	f.Add(uint64(7), 63, 90, 30, uint8(50))
	f.Fuzz(func(t *testing.T, seed uint64, d, m, n int, density uint8) {
		d, m = abs(d)%80+1, abs(m)%600+1
		n = abs(n) % (m + 1)
		var a *CSC
		var y []float64
		if density == 255 {
			a, y = fullCSC(d, m, seed)
		} else {
			a, y = fuzzCSC(d, m, float64(density)/255, seed)
		}
		g := rng.New(seed ^ 0xabcd)
		cols := make([]int, n) // with replacement: repeats are legal input
		for i := range cols {
			cols[i] = g.Intn(m)
		}
		scale := 1 / float64(n+1)

		got, rGot := dirtyGram(d, d, seed)
		want, rWant := dirtyGram(d, d, seed)
		hd := mat.NewDense(d, d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				hd.Set(i, j, got.At(i, j))
				hd.Set(j, i, got.At(i, j))
			}
		}
		rd := append([]float64(nil), rGot...)
		var cGot, cWant perf.Cost
		SampledGramPacked(a, got, rGot, y, cols, scale, &cGot)
		gramPackedSweep(a, want, rWant, y, cols, scale, &cWant)
		requireSameBits(t, "H", got.Data, want.Data)
		requireSameBits(t, "R", rGot, rWant)
		if cGot.Flops != cWant.Flops {
			t.Fatalf("billed %d flops, sweep bills %d", cGot.Flops, cWant.Flops)
		}

		sampledGramDense(a, hd, rd, y, cols, scale, nil)
		requireSameBits(t, "H vs dense upper triangle", got.Data, upper(hd).Data)
		requireSameBits(t, "R vs dense", rGot, rd)
	})
}

// FuzzSampledGramPackedActive pins the screened fills to their oracles:
// for random blocks up to d = 80 with stored +0 and -0, random working
// sets (empty and single-row ones among them), with-replacement sample
// sets and a non-zero H and R on entry, SampledGramPackedRows equals
// gramRowsSweep and SampledGramPackedView equals gramViewSweep, bit for
// bit and flop for flop, and the two fills equal each other.
func FuzzSampledGramPackedActive(f *testing.F) {
	f.Add(uint64(1), 12, 40, 17, 0, uint8(100))
	f.Add(uint64(2), 12, 40, 17, 1, uint8(100))
	f.Add(uint64(3), 80, 200, 120, 8, uint8(50))
	f.Add(uint64(4), 30, 50, 50, 30, uint8(255))
	f.Add(uint64(5), 7, 20, 0, 3, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, d, m, n, na int, density uint8) {
		d, m = abs(d)%80+1, abs(m)%400+1
		n, na = abs(n)%(m+1), abs(na)%(d+1)
		a, y := fuzzCSC(d, m, float64(density)/255, seed)
		g := rng.New(seed ^ 0x5eed)
		act := g.SampleWithoutReplacement(d, na)
		slices.Sort(act)
		pos := make([]int, d)
		for i := range pos {
			pos[i] = -1
		}
		for p, i := range act {
			pos[i] = p
		}
		cols := make([]int, n)
		for i := range cols {
			cols[i] = g.Intn(m)
		}
		scale := 1 / float64(n+1)
		var view ActiveView
		view.Build(a, pos)

		hRows, rRows := dirtyGram(na, d, seed)
		hView, rView := dirtyGram(na, d, seed)
		hRowsRef, rRowsRef := dirtyGram(na, d, seed)
		hViewRef, rViewRef := dirtyGram(na, d, seed)
		var cRows, cView, cRowsRef, cViewRef perf.Cost
		SampledGramPackedRows(a, hRows, rRows, y, cols, act, pos, nil, nil, scale, &cRows)
		SampledGramPackedView(a, &view, hView, rView, y, cols, scale, &cView)
		gramRowsSweep(a, hRowsRef, rRowsRef, y, cols, act, pos, nil, nil, scale, &cRowsRef)
		gramViewSweep(a, &view, hViewRef, rViewRef, y, cols, scale, &cViewRef)
		requireSameBits(t, "rows H", hRows.Data, hRowsRef.Data)
		requireSameBits(t, "rows R", rRows, rRowsRef)
		requireSameBits(t, "view H", hView.Data, hViewRef.Data)
		requireSameBits(t, "view R", rView, rViewRef)
		requireSameBits(t, "view H vs rows H", hView.Data, hRows.Data)
		if cRows.Flops != cRowsRef.Flops || cView.Flops != cViewRef.Flops || cView.Flops != cRows.Flops {
			t.Fatalf("billed rows %d, view %d; oracles bill %d, %d",
				cRows.Flops, cView.Flops, cRowsRef.Flops, cViewRef.Flops)
		}
	})
}

// fuzzCSC is randomCSC with about one stored value in eight replaced by
// +0 or -0, and matching labels.
func fuzzCSC(d, m int, density float64, seed uint64) (*CSC, []float64) {
	a := randomCSC(d, m, density, seed)
	g := rng.New(seed + 1)
	for k := range a.Val {
		switch g.Intn(16) {
		case 0:
			a.Val[k] = 0
		case 1:
			a.Val[k] = math.Copysign(0, -1)
		}
	}
	y := make([]float64, m)
	for j := range y {
		y[j] = g.NormFloat64()
	}
	return a, y
}

// dirtyGram returns an n x n packed H and an R of length rows, both
// filled from seed with non-zero values except a -0 at H[0], the
// accumulator a fill starts from in the bit-identity checks.
func dirtyGram(n, rows int, seed uint64) (*mat.SymPacked, []float64) {
	g := rng.New(seed ^ 0xd1)
	h, r := mat.NewSymPacked(n), make([]float64, rows)
	for i := range h.Data {
		h.Data[i] = g.NormFloat64()
	}
	for i := range r {
		r[i] = g.NormFloat64()
	}
	if len(h.Data) > 0 {
		h.Data[0] = math.Copysign(0, -1)
	}
	return h, r
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

// freshSets are the 64 pre-drawn column sets the Gram benchmarks cycle
// through: every call takes the next one, so it fetches columns the
// previous call did not leave in cache and the column-fetch misses of
// a stage-B fill are part of the time (64 sets of 400 from 4000
// columns touch the whole block).
func freshSets(m, n int) [][]int {
	g := rng.New(2)
	sets := make([][]int, 64)
	for i := range sets {
		sets[i] = g.SampleWithoutReplacement(m, n)
	}
	return sets
}

// benchGram times fill(cols) on the next fresh column set per op and
// reports the flops fill bills per second.
func benchGram(b *testing.B, sets [][]int, fill func(cols []int, c *perf.Cost)) {
	var c perf.Cost
	for _, cols := range sets {
		fill(cols, &c) // page the block in, size the panel scratch
	}
	c = perf.Cost{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(sets[i%len(sets)], &c)
	}
	b.ReportMetric(float64(c.Flops)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkSampledGramPacked times one slot fill at one rank's share
// of the repo benchmark's shapes, on both sides of the Full()
// selection: the two dense shapes (ls_fill_chan's 192 x 2000 block at
// 200 columns a slot, and a d = 392 block whose 400-column slots span
// two panels) take the panel kernel; the sparse ones (ls_bw_tcp's
// mnist block, f = 0.19, at d = 392 and 784, and ls_lat_tcp's covtype
// block, f = 0.22) take the column sweep of AddOuterPacked.
func BenchmarkSampledGramPacked(b *testing.B) {
	for _, bc := range []struct {
		name    string
		d, m, n int
		density float64
	}{
		{"dense192", 192, 2000, 200, 1},
		{"dense392", 392, 4000, 400, 1},
		{"sparse392_f0.19", 392, 4000, 400, 0.19},
		{"sparse784_f0.19", 784, 4000, 400, 0.19},
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
			h, r := mat.NewSymPacked(bc.d), make([]float64, bc.d)
			scale := 1 / float64(bc.n)
			benchGram(b, freshSets(bc.m, bc.n), func(cols []int, c *perf.Cost) {
				SampledGramPacked(a, h, r, y, cols, scale, c)
			})
		})
	}
}

// BenchmarkSampledGramPackedActive times the screened fill at
// ls_screen_tcp's shape: a d = 784 mnist block, f = 0.19, 400-column
// slots and a working set of 78 rows (10 % of d), through the inline
// position-map filter (rows) and through a prebuilt ActiveView (view).
func BenchmarkSampledGramPackedActive(b *testing.B) {
	const d, m, n = 784, 4000, 400
	a := randomCSC(d, m, 0.19, 1)
	y := make([]float64, m)
	act := rng.New(3).SampleWithoutReplacement(d, d/10)
	slices.Sort(act)
	pos := make([]int, d)
	for i := range pos {
		pos[i] = -1
	}
	for p, i := range act {
		pos[i] = p
	}
	var view ActiveView
	view.Build(a, pos)
	h, r := mat.NewSymPacked(len(act)), make([]float64, d)
	rowScratch, valScratch := make([]int, d), make([]float64, d)
	sets := freshSets(m, n)
	b.Run("rows", func(b *testing.B) {
		benchGram(b, sets, func(cols []int, c *perf.Cost) {
			SampledGramPackedRows(a, h, r, y, cols, act, pos, rowScratch, valScratch, 1.0/n, c)
		})
	})
	b.Run("view", func(b *testing.B) {
		benchGram(b, sets, func(cols []int, c *perf.Cost) {
			SampledGramPackedView(a, &view, h, r, y, cols, 1.0/n, c)
		})
	})
}
