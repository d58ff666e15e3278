package solver

import (
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/sparse"
)

// requireBitIdentical fails unless two results agree to the last bit on
// the iterate, the final objective and every recorded trace objective.
func requireBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.W) != len(b.W) {
		t.Fatalf("%s: iterate lengths differ", label)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("%s: W[%d] = %v vs %v (not bit-identical)", label, i, a.W[i], b.W[i])
		}
	}
	if a.FinalObj != b.FinalObj {
		t.Fatalf("%s: FinalObj %v vs %v", label, a.FinalObj, b.FinalObj)
	}
	if a.Iters != b.Iters || a.Rounds != b.Rounds {
		t.Fatalf("%s: iters/rounds differ: %d/%d vs %d/%d", label, a.Iters, a.Rounds, b.Iters, b.Rounds)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("%s: trace lengths %d vs %d", label, a.Trace.Len(), b.Trace.Len())
	}
	for i := range a.Trace.Points {
		pa, pb := a.Trace.Points[i], b.Trace.Points[i]
		if pa.Obj != pb.Obj || pa.Iter != pb.Iter || pa.Round != pb.Round {
			t.Fatalf("%s: trace point %d differs: %+v vs %+v", label, i, pa, pb)
		}
	}
}

// TestPackedDenseGoldenEquivalence is the invariant that keeps the
// dense-unpacked slot out of production: the packed engine and the
// test-held denseRef differ in wire format and nothing else — every
// iterate, objective and trace point matches to the last bit, because
// the Gram kernels compute each symmetric element once and the
// per-element reduction order is unchanged.
func TestPackedDenseGoldenEquivalence(t *testing.T) {
	p, gamma, fstar := testProblem(t, 18, 240, 0.5)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 160
	o.K = 4
	o.EvalEvery = 8
	requireBitIdentical(t, "self", selfSolve(t, p, o), selfSolveStages(t, p, o, denseStages))
	o.S = 2
	requireBitIdentical(t, "self/S=2", selfSolve(t, p, o), selfSolveStages(t, p, o, denseStages))
}

func TestPackedDenseEquivalenceDistributed(t *testing.T) {
	p, gamma, fstar := testProblem(t, 12, 150, 0.6)
	o := baseOpts(p, gamma, fstar)
	o.Tol = 0
	o.MaxIter = 90
	o.K = 3
	o.S = 1
	o.EvalEvery = 9
	packed, err := SolveDistributed(dist.NewWorld(3, perf.Comet()), p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	dense := worldSolveStages(t, 3, p, o, denseStages)
	requireBitIdentical(t, "world-p3", packed, dense)
	if dense.Cost.Words <= packed.Cost.Words {
		t.Fatalf("reference shipped %d words, packed %d: denseRef is not running the dense format",
			dense.Cost.Words, packed.Cost.Words)
	}
}

// TestPackedRoundWordCount pins the exact communication volume: each
// round allreduces k*(d(d+1)/2 + d) words over ceil(log2 P) tree
// levels — from Defaults() and from a bare Options literal alike, so
// the wire format can never again hang on a field whose zero value
// means dense (a hand-built Options then shipped k*(d^2 + d) words per
// round without asking for it).
func TestPackedRoundWordCount(t *testing.T) {
	const (
		d     = 9
		m     = 120
		procs = 4
		k     = 3
	)
	p := data.Generate(data.GenSpec{D: d, M: m, Density: 0.7, Lambda: 0.05, Seed: 77})
	gamma := GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.2, 4, 77))
	// VarianceReduced stays off in both: isolate the Hessian allreduce.
	literal := Options{Lambda: p.Lambda, Gamma: gamma, B: 0.2, K: k, MaxIter: 30, EvalEvery: 1000}
	fromDefaults := Defaults()
	fromDefaults.Lambda, fromDefaults.Gamma = p.Lambda, gamma
	fromDefaults.B, fromDefaults.K = 0.2, k
	fromDefaults.MaxIter, fromDefaults.EvalEvery = 30, 1000
	fromDefaults.VarianceReduced = false

	lg := int64(perf.Log2Ceil(procs))
	for _, c := range []struct {
		name string
		o    Options
	}{{"Defaults()", fromDefaults}, {"Options literal", literal}} {
		name, o := c.name, c.o
		res, err := SolveDistributed(dist.NewWorld(procs, perf.Comet()), p.X, p.Y, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds := int64(res.Rounds)
		if rounds == 0 {
			t.Fatalf("%s: no rounds recorded", name)
		}
		want := rounds * lg * int64(k*(d*(d+1)/2+d))
		if res.Cost.Words != want {
			t.Fatalf("%s: words = %d, want rounds(%d)*lg(%d)*k(%d)*(d(d+1)/2+d) = %d",
				name, res.Cost.Words, rounds, lg, k, want)
		}
		if wantMsg := rounds * lg; res.Cost.Messages != wantMsg {
			t.Fatalf("%s: messages = %d, want %d", name, res.Cost.Messages, wantMsg)
		}
	}
}

func TestPackedVarianceReducedWordCount(t *testing.T) {
	// With VR on, the solve fills the resident Gram before round 0 and
	// bills its PackedLen(d)+d+1 words once; every snapshot refresh — at
	// w = 0 and at updates 10 and 20 — reads it and costs no words on top
	// of the per-round Hessian batch.
	const (
		d     = 6
		procs = 4
		k     = 2
		iters = 20
	)
	p := data.Generate(data.GenSpec{D: d, M: 80, Density: 0.8, Lambda: 0.05, Seed: 78})
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 0.25, 4, 78))
	o.B = 0.25
	o.K = k
	o.MaxIter = iters
	o.Tol = 0
	o.EpochLen = 10
	o.EvalEvery = 1000
	w := dist.NewWorld(procs, perf.Comet())
	res, err := SolveDistributed(w, p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	lg := int64(perf.Log2Ceil(procs))
	want := int64(res.Rounds)*lg*int64(k*(d*(d+1)/2+d)) + lg*int64(d*(d+1)/2+d+1)
	if res.Cost.Words != want {
		t.Fatalf("VR words = %d, want %d", res.Cost.Words, want)
	}
}

func TestMoreRanksThanColumns(t *testing.T) {
	// 8 ranks, 5 columns: ranks 5..7 own empty blocks and must still
	// participate in every collective without panicking. Packed vs
	// the dense reference stays bit-identical at this rank count, and the
	// result agrees with the sequential run up to allreduce summation-order
	// round-off (the rank-invariance tolerance used elsewhere).
	p := data.Generate(data.GenSpec{D: 4, M: 5, Density: 1, Lambda: 0.05, Seed: 79})
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 79))
	o.B = 1
	o.K = 2
	o.MaxIter = 12
	o.Tol = 0
	o.EvalEvery = 4

	wide, err := SolveDistributed(dist.NewWorld(8, perf.Comet()), p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "ranks>cols packed-vs-dense", wide, worldSolveStages(t, 8, p, o, denseStages))

	seq := selfSolve(t, p, o)
	for i := range seq.W {
		if math.Abs(wide.W[i]-seq.W[i]) > 1e-10 {
			t.Fatalf("W[%d] = %g (P=8) vs %g (seq)", i, wide.W[i], seq.W[i])
		}
	}

	// The empty local block itself.
	local := Partition(p.X, p.Y, 8, 7)
	if local.X.Cols != 0 || len(local.Y) != 0 {
		t.Fatalf("rank 7 block not empty: %d cols", local.X.Cols)
	}
}

func TestFullSampleWithOverlapAndReuse(t *testing.T) {
	// mbar == m (B = 1) with K, S > 1: every slot samples all columns;
	// the run must stay finite and identical across rank counts.
	p := data.Generate(data.GenSpec{D: 6, M: 40, Density: 0.9, Lambda: 0.05, Seed: 80})
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(SampledLipschitz(p.X, p.Y, 1, 1, 80))
	o.B = 1
	o.K = 3
	o.S = 2
	o.MaxIter = 24
	o.Tol = 0
	o.EvalEvery = 6
	o.VarianceReduced = false

	seq := selfSolve(t, p, o)
	for _, v := range seq.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite iterate: %v", seq.W)
		}
	}
	par, err := SolveDistributed(dist.NewWorld(5, perf.Comet()), p.X, p.Y, o)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "mbar==m packed-vs-dense", par, worldSolveStages(t, 5, p, o, denseStages))
	for i := range seq.W {
		if math.Abs(par.W[i]-seq.W[i]) > 1e-10 {
			t.Fatalf("W[%d] = %g (P=5) vs %g (seq)", i, par.W[i], seq.W[i])
		}
	}
}

func TestCholInnerSolvesQuadExactly(t *testing.T) {
	// Minimize (1/2) z^T H z - R^T z with SPD H: CholInner must hit the
	// linear-system solution regardless of the iteration budget.
	const d = 7
	hd := mat.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := math.Sin(float64(i*d+j)) / 8
			hd.Set(i, j, v)
			hd.Set(j, i, v)
		}
		hd.Set(i, i, 3+float64(i))
	}
	r := make([]float64, d)
	for i := range r {
		r[i] = float64(i) - 2.5
	}
	want, err := mat.SolveSPD(hd, r, nil)
	if err != nil {
		t.Fatal(err)
	}

	z0 := make([]float64, d)
	for _, h := range []Hessian{hd, packUpper(hd)} {
		q := Quad{H: h, R: r}
		z := CholInner{}.Solve(q, prox.Zero{}, z0, 0, nil)
		for i := range z {
			if math.Abs(z[i]-want[i]) > 1e-12 {
				t.Fatalf("z[%d] = %g, want %g", i, z[i], want[i])
			}
		}
		g := make([]float64, d)
		q.Grad(g, z, nil)
		if mat.NrmInf(g) > 1e-10 {
			t.Fatalf("gradient at CholInner solution: %g", mat.NrmInf(g))
		}
	}
}

func TestCholInnerRidgeAndFallback(t *testing.T) {
	const d = 4
	h := mat.NewSymPacked(d)
	for i := 0; i < d; i++ {
		h.Set(i, i, 2)
	}
	r := []float64{1, 2, 3, 4}
	const ridge = 0.5
	// (2 + 0.5) z = r -> z = r / 2.5; H must not be mutated by the
	// ridge shift.
	z := CholInner{Ridge: ridge}.Solve(Quad{H: h, R: r}, prox.Zero{}, make([]float64, d), 0, nil)
	for i := range z {
		if math.Abs(z[i]-r[i]/2.5) > 1e-14 {
			t.Fatalf("z[%d] = %g, want %g", i, z[i], r[i]/2.5)
		}
	}
	if h.At(0, 0) != 2 {
		t.Fatalf("CholInner mutated H: H(0,0) = %g", h.At(0, 0))
	}

	// Indefinite H without ridge: fall back to the starting point.
	bad := mat.NewSymPacked(2)
	bad.Set(0, 0, 1)
	bad.Set(0, 1, 2)
	bad.Set(1, 1, 1)
	z0 := []float64{0.25, -0.75}
	out := CholInner{}.Solve(Quad{H: bad, R: []float64{1, 1}}, prox.Zero{}, z0, 0, nil)
	if out[0] != z0[0] || out[1] != z0[1] {
		t.Fatalf("fallback returned %v, want z0 %v", out, z0)
	}
	out[0] = 99
	if z0[0] == 99 {
		t.Fatal("fallback aliased z0")
	}
	if _, ok := interface{}(CholInner{}).(QuadInner); !ok {
		t.Fatal("CholInner does not satisfy QuadInner")
	}
	if (CholInner{}).Name() != "chol" {
		t.Fatal("CholInner name")
	}
}

func TestCDInnerPackedMatchesDense(t *testing.T) {
	// The coordinate-descent inner solver consumes the Hessian through
	// At/AddScaledCol; packed and dense operators must agree bitwise.
	p, _, _ := testProblem(t, 10, 120, 0.7)
	hp := mat.NewSymPacked(10)
	r := make([]float64, 10)
	sparse.FullGramPacked(p.X, hp, r, p.Y, 1/float64(p.X.Cols), nil)
	hd := expand(hp)

	cd := CDInner{Lambda: 0.05}
	z0 := make([]float64, 10)
	zd := cd.Solve(Quad{H: hd, R: r}, prox.L1{Lambda: 0.05}, z0, 30, nil)
	zp := cd.Solve(Quad{H: hp, R: r}, prox.L1{Lambda: 0.05}, z0, 30, nil)
	for i := range zd {
		if zd[i] != zp[i] {
			t.Fatalf("CD iterate differs at %d: %v vs %v", i, zd[i], zp[i])
		}
	}
}

func TestParallelStageBDeterministicCost(t *testing.T) {
	// The worker pool merges per-slot costs in slot order, so repeated
	// runs charge identical costs and identical iterates regardless of
	// goroutine scheduling.
	p, gamma, _ := testProblem(t, 14, 200, 0.5)
	run := func() *Result {
		o := baseOpts(p, gamma, math.NaN())
		o.Tol = 0
		o.MaxIter = 64
		o.K = 8 // wide batch: the pool actually fans out
		o.EvalEvery = 16
		return selfSolve(t, p, o)
	}
	a, b := run(), run()
	if a.Cost != b.Cost {
		t.Fatalf("parallel stage B costs differ across runs: %v vs %v", a.Cost, b.Cost)
	}
	requireBitIdentical(t, "parallel-stage-b", a, b)
}
