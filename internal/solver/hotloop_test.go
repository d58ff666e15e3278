package solver

import (
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solvercore"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// Hot-loop allocation regressions: the subproblem machinery and the
// full-Gram kernels must run allocation-free once warm. Companion
// benchmarks (with -benchmem) quantify the wins.

func TestFISTAInnerSolveAllocationFreeWhenWarm(t *testing.T) {
	q := smallQuad(16, 9)
	// Hoist the interface conversion: boxing prox.L1 at the call site
	// would be charged to the solver otherwise.
	var g prox.Operator = prox.L1{Lambda: 0.05}
	l := solvercore.EstimateQuadLipschitz(q.H, 30, nil)
	inner := &solvercore.FISTAInner{Gamma: 1 / l}
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

func BenchmarkFISTAInnerSolve(b *testing.B) {
	q := smallQuad(32, 9)
	var g prox.Operator = prox.L1{Lambda: 0.05}
	l := solvercore.EstimateQuadLipschitz(q.H, 30, nil)
	inner := &solvercore.FISTAInner{Gamma: 1 / l}
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
