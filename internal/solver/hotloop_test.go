package solver

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Hot-loop allocation regressions: the subproblem machinery and the
// full-Gram kernels must run allocation-free once warm, and the inner
// CD sweep must charge flops only for the coordinates it actually
// computes. Companion benchmarks (with -benchmem) quantify the wins.

func TestQuadValueWithAllocationFree(t *testing.T) {
	q := smallQuad(16, 9)
	z := make([]float64, 16)
	hz := make([]float64, 16)
	z[3], z[7] = 0.5, -0.25
	if got, want := q.ValueWith(z, hz, nil), q.Value(z, nil); got != want {
		t.Fatalf("ValueWith = %g, Value = %g", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { q.ValueWith(z, hz, nil) }); n != 0 {
		t.Fatalf("ValueWith allocated %g times per call", n)
	}
}

func TestFISTAInnerSolveAllocationFreeWhenWarm(t *testing.T) {
	q := smallQuad(16, 9)
	// Hoist the interface conversion: boxing prox.L1 at the call site
	// would be charged to the solver otherwise.
	var g prox.Operator = prox.L1{Lambda: 0.05}
	l := EstimateQuadLipschitz(q.H, 30, nil)
	inner := &FISTAInner{Gamma: 1 / l}
	z0 := make([]float64, 16)
	inner.Solve(q, g, z0, 5, nil) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { inner.Solve(q, g, z0, 5, nil) }); n != 0 {
		t.Fatalf("warm FISTAInner.Solve allocated %g times per call", n)
	}
}

func TestFullGramPackedAllocationFree(t *testing.T) {
	p := gramProblem()
	h := mat.NewSymPacked(p.X.Rows)
	r := make([]float64, p.X.Rows)
	if n := testing.AllocsPerRun(20, func() {
		sparse.FullGramPacked(p.X, h, r, p.Y, 1, nil)
	}); n != 0 {
		t.Fatalf("FullGramPacked allocated %g times per call", n)
	}
	hd := mat.NewDense(p.X.Rows, p.X.Rows)
	if n := testing.AllocsPerRun(20, func() {
		sparse.FullGram(p.X, hd, r, p.Y, 1, nil)
	}); n != 0 {
		t.Fatalf("FullGram allocated %g times per call", n)
	}
}

func TestSampledGramPackedRowsAllocationFreeWithScratch(t *testing.T) {
	p := gramProblem()
	d := p.X.Rows
	act := []int{0, 2, 3, 7, 9}
	pos := make([]int, d)
	for i := range pos {
		pos[i] = -1
	}
	for q, i := range act {
		pos[i] = q
	}
	h := mat.NewSymPacked(len(act))
	r := make([]float64, d)
	rowScratch := make([]int, d)
	valScratch := make([]float64, d)
	if n := testing.AllocsPerRun(20, func() {
		h.Zero()
		mat.Zero(r)
		sparse.SampledGramPackedRows(p.X, h, r, p.Y, nil, act, pos, rowScratch, valScratch, 1, nil)
	}); n != 0 {
		t.Fatalf("SampledGramPackedRows allocated %g times per call", n)
	}
}

// TestEngineFillAllocationFreeWhenWarm pins stages A and B of a k = 1
// round: the shared draw and the local column map land in the slot's
// kept buffers, both for a sampled round and for the b = 1 full set.
func TestEngineFillAllocationFreeWhenWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := data.Generate(data.GenSpec{D: 24, M: 400, Density: 0.3, Lambda: 0.1, Seed: 7})
	for _, b := range []float64{0.1, 1} {
		o := Defaults()
		o.Lambda, o.Gamma, o.K, o.B = p.Lambda, 0.1, 1, b
		e, err := newEngine(dist.NewSelfComm(perf.Comet()), Partition(p.X, p.Y, 1, 0), o)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, e.BatchLen())
		e.Fill(buf) // warm the slot buffers
		if n := testing.AllocsPerRun(20, func() { e.Fill(buf) }); n != 0 {
			t.Fatalf("warm engine.Fill at b=%g allocated %g times per round", b, n)
		}
	}
}

// TestCDInnerFlopAccountingRankDeficient pins the fast-path accounting:
// a coordinate whose diagonal is non-positive is skipped for free; the
// 6-flop closed-form charge lands only on computed coordinates, and
// AddScaledCol's 2d lands only on coordinates that actually moved.
func TestCDInnerFlopAccountingRankDeficient(t *testing.T) {
	const d = 4
	h := mat.NewSymPacked(d)
	h.Set(0, 0, 2)
	h.Set(2, 2, 3) // diagonals 1 and 3 stay zero: rank-deficient
	r := []float64{10, 10, 10, 10}
	q := Quad{H: h, R: r}
	var c perf.Cost
	z := CDInner{Lambda: 0.1}.Solve(q, nil, make([]float64, d), 2, &c)

	if z[1] != 0 || z[3] != 0 {
		t.Fatalf("zero-diagonal coordinates moved: %v", z)
	}
	if z[0] == 0 || z[2] == 0 {
		t.Fatalf("positive-diagonal coordinates did not move: %v", z)
	}
	// Sweep 1 updates both positive-diagonal coordinates; sweep 2
	// recomputes them (6 flops each) but finds delta = 0, so no
	// AddScaledCol. Zero-diagonal coordinates charge nothing, ever:
	//   2d^2 (initial H z) + 2 sweeps * 2 coords * 6 + 2 updates * 2d.
	want := int64(2*d*d + 2*2*6 + 2*2*d)
	if c.Flops != want {
		t.Fatalf("CDInner charged %d flops, want %d", c.Flops, want)
	}
}

// gramProblem builds a small fixed sparse instance for the kernel
// allocation tests.
func gramProblem() struct {
	X *sparse.CSC
	Y []float64
} {
	const d, m = 10, 30
	colPtr := make([]int, 1, m+1)
	var rowIdx []int
	var val []float64
	for j := 0; j < m; j++ {
		for i := j % 3; i < d; i += 3 {
			rowIdx = append(rowIdx, i)
			val = append(val, float64(i+j%5)+0.5)
		}
		colPtr = append(colPtr, len(rowIdx))
	}
	y := make([]float64, m)
	for j := range y {
		y[j] = float64(j%7) - 3
	}
	return struct {
		X *sparse.CSC
		Y []float64
	}{X: &sparse.CSC{Rows: d, Cols: m, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, Y: y}
}

func BenchmarkQuadValueWith(b *testing.B) {
	q := smallQuad(32, 9)
	z := make([]float64, 32)
	hz := make([]float64, 32)
	z[3], z[17] = 0.5, -0.25
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ValueWith(z, hz, nil)
	}
}

func BenchmarkFISTAInnerSolve(b *testing.B) {
	q := smallQuad(32, 9)
	var g prox.Operator = prox.L1{Lambda: 0.05}
	l := EstimateQuadLipschitz(q.H, 30, nil)
	inner := &FISTAInner{Gamma: 1 / l}
	z0 := make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.Solve(q, g, z0, 10, nil)
	}
}

func BenchmarkFullGramPacked(b *testing.B) {
	p := gramProblem()
	h := mat.NewSymPacked(p.X.Rows)
	r := make([]float64, p.X.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.FullGramPacked(p.X, h, r, p.Y, 1, nil)
	}
}

// BenchmarkSampledGramPackedRows reports the modeled wire payload of
// the reduced slot next to its runtime: the communication saving
// alongside the compute cost.
func BenchmarkSampledGramPackedRows(b *testing.B) {
	p := gramProblem()
	d := p.X.Rows
	act := []int{0, 2, 3, 7, 9}
	pos := make([]int, d)
	for i := range pos {
		pos[i] = -1
	}
	for q, i := range act {
		pos[i] = q
	}
	h := mat.NewSymPacked(len(act))
	r := make([]float64, d)
	rowScratch := make([]int, d)
	valScratch := make([]float64, d)
	b.ReportAllocs()
	b.ReportMetric(float64(mat.PackedLen(len(act))+d), "words/slot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Zero()
		mat.Zero(r)
		sparse.SampledGramPackedRows(p.X, h, r, p.Y, nil, act, pos, rowScratch, valScratch, 1, nil)
	}
}

func BenchmarkActiveSetSolve(b *testing.B) {
	benchActive(b, true)
}

func BenchmarkDenseSolveBaseline(b *testing.B) {
	benchActive(b, false)
}

func benchActive(b *testing.B, active bool) {
	b.Helper()
	p := data.Generate(data.GenSpec{D: 32, M: 400, Density: 0.2, TrueNnz: 4, Lambda: 0.2, Seed: 3, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(l)
	o.MaxIter = 120
	o.B = 0.25
	o.EvalEvery = 20
	o.ActiveSet = active
	b.ResetTimer()
	var words int64
	var modelSec float64
	for i := 0; i < b.N; i++ {
		w := dist.NewWorld(4, perf.Comet())
		res, err := SolveDistributed(w, p.X, p.Y, o)
		if err != nil {
			b.Fatal(err)
		}
		words = res.Cost.Words
		modelSec = res.ModelSeconds
	}
	b.ReportMetric(float64(words), "words/solve")
	// The cost-model verdict next to the measured one: screening must
	// win on modeled time too, not just on this host's clock.
	b.ReportMetric(modelSec*1e3, "modelms/solve")
}
