package solver

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
)

// denseGrad is Triple.grad as it was before the support-aware product:
// Gw by the dense MulVec, then −r. It is the oracle the support-aware
// path is held to.
func denseGrad(t *Triple, dst, w []float64, cost *perf.Cost) {
	t.g.MulVec(dst, w, cost)
	mat.Axpy(-1, t.r, dst, cost)
}

// denseStep is tripleSolve.step with its Gv − r taken by denseGrad.
func denseStep(s *tripleSolve) {
	tNext := (1 + math.Sqrt(1+4*s.t*s.t)) / 2
	mu := (s.t - 1) / tNext
	s.t = tNext
	mat.Sub(s.v, s.w, s.wPrev, s.cost)
	mat.AddScaled(s.v, s.w, mu, s.v, s.cost)
	denseGrad(s.tri, s.grad, s.v, s.cost)
	s.w, s.wPrev = s.wPrev, s.w
	mat.AddScaled(s.w, s.v, -s.lr, s.grad, s.cost)
	s.reg.Apply(s.w, s.w, s.lr, s.cost)
	var dot float64
	for i, wi := range s.w {
		dot += (s.v[i] - wi) * (wi - s.wPrev[i])
	}
	s.cost.AddFlops(int64(4 * len(s.w)))
	if dot > 0 {
		s.t = 1
	}
}

// denseSolveTriple is SolveTriple's loop, without a context, with every
// Gw − r — the step's and the Gram check's — taken by denseGrad. It
// sets W, Iters, FinalObj, GradMap, Converged and Cost.
func denseSolveTriple(tri *Triple, opts Options) *Result {
	o := opts.withDefaults()
	res := &Result{GradMap: math.NaN()}
	s := newTripleSolve(tri, o, &res.Cost)
	tol := o.GradMapTol
	n := 0
	for ; ; n++ {
		if (n%tripleCheckEvery == 0 || n == o.MaxIter) && tol > 0 {
			denseGrad(tri, s.grad, s.w, s.cost)
			if norm := gradMapNorm(s.tmp, s.w, s.grad, s.lr, s.reg, s.cost); norm <= tol {
				if cert := norm + tri.mapErr(s.w, s.grad, norm, s.lr, o.Reg, s.cost); cert <= tol {
					res.GradMap, res.Converged = cert, true
					break
				}
			}
		}
		if n == o.MaxIter {
			break
		}
		denseStep(s)
	}
	res.FinalObj = tri.loss(s.w) + o.Reg.Value(s.w, &res.Cost)
	res.W, res.Iters = s.w, n
	return res
}

// lambdaMax is ‖Xy/m‖∞, the serving layer's anchor for a λ ratio.
func lambdaMax(p *data.Problem) float64 {
	g := make([]float64, p.X.Rows)
	p.X.MulVec(g, p.Y, nil)
	var l float64
	for _, v := range g {
		l = max(l, math.Abs(v))
	}
	return l / float64(p.X.Cols)
}

// ratioGrid is the geometric λ/λmax grid hi → lo of n points, as the
// benchmark's serving workloads and the load sweep lay it out.
func ratioGrid(hi, lo float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(math.Log(hi) + (math.Log(lo)-math.Log(hi))*float64(i)/float64(n-1))
	}
	return out
}

// servedRegs are the regularizers a served fit takes at penalty lam,
// with Reg nil standing for l1.
func servedRegs(t testing.TB, lam float64, d int) map[string]prox.Operator {
	groups, err := prox.ParseGroups("size:4", d)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]prox.Operator{
		"l1":    nil,
		"en":    prox.ElasticNet{Lambda1: lam, Lambda2: 0.05},
		"ridge": prox.L2Squared{Lambda: 0.05},
		"group": prox.GroupL2{Lambda: lam, Groups: groups},
	}
}

// TestTripleGradSupportBits: a triple solve whose Gw − r reads only the
// columns its iterate touches answers bit for bit like one that takes
// the dense product — W, Iters, FinalObj, GradMap, Converged and Cost —
// cold and warm-started along the path, with l1, elastic net, ridge and
// group lasso: on covtype 24000×54 at P = 2 over serve_cold's grid
// (λ/λmax 0.11 → 0.09) and serve_hot's path (0.5 → 0.05), and on an
// mnist 8000×392 triple whose iterates' supports lie on both sides of
// the product's crossover. Triple.grad allocates nothing on a sparse or
// a dense w. A triple with an Inf on G's diagonal has no finite bound,
// so on either product it runs to MaxIter unconverged.
func TestTripleGradSupportBits(t *testing.T) {
	shapes := []struct {
		name   string
		m, d   int
		ratios []float64
	}{
		{"covtype", 24000, 54, append(ratioGrid(0.11, 0.09, 8), ratioGrid(0.5, 0.05, 16)...)},
		{"mnist", 8000, 392, ratioGrid(0.5, 0.02, 4)},
	}
	for _, sh := range shapes {
		p, err := data.LoadWith(sh.name, sh.m, sh.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		tri := FillTriple(p.X, p.Y, 2, nil)
		lmax := lambdaMax(p)
		// The l1, en and group answers' support sizes: from ≤ d/8 to
		// ≥ d/3 puts the iterates on both sides of a crossover anywhere
		// in between (it sits at d/5); ridge's are dense.
		minNnz, maxNnz := sh.d, 0
		for rname := range servedRegs(t, 0, sh.d) {
			var warm []float64
			for _, ratio := range sh.ratios {
				o := Defaults()
				o.Lambda = ratio * lmax
				o.MaxIter, o.GradMapTol = 4000, 1e-5
				o.Reg = servedRegs(t, o.Lambda, sh.d)[rname]
				starts := [][]float64{nil, warm}
				if warm == nil { // the path's head has no warm start
					starts = starts[:1]
				}
				for _, w0 := range starts {
					o.W0 = w0
					label := fmt.Sprintf("%s/%s/ratio %.4g/warm %t", sh.name, rname, ratio, w0 != nil)
					got, err := SolveTriple(context.Background(), tri, perf.Comet(), o)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := denseSolveTriple(tri, o)
					if !sameAnswer(got, want) || got.Cost != want.Cost {
						t.Fatalf("%s: %d iters, objective %.17g, gradmap %.17g, cost %+v; dense product: %d, %.17g, %.17g, %+v (or W differs)",
							label, got.Iters, got.FinalObj, got.GradMap, got.Cost, want.Iters, want.FinalObj, want.GradMap, want.Cost)
					}
					if rname != "ridge" {
						nnz := mat.CountNonzeros(got.W, 0)
						minNnz, maxNnz = min(minNnz, nnz), max(maxNnz, nnz)
					}
					// The path goes on from the last answer, warm where there is one.
					warm = got.W
				}
			}
		}
		if sh.name == "mnist" && !(minNnz <= sh.d/8 && maxNnz >= sh.d/3) {
			t.Fatalf("mnist answers hold %d to %d nonzeros of %d: the supports do not cross the product's crossover", minNnz, maxNnz, sh.d)
		}

		sparseW, denseW, g := make([]float64, sh.d), make([]float64, sh.d), make([]float64, sh.d)
		sparseW[1] = 0.5
		mat.Fill(denseW, 0.25)
		for _, w := range [][]float64{sparseW, denseW} {
			var c perf.Cost
			if a := testing.AllocsPerRun(20, func() { tri.grad(g, w, &c) }); a != 0 {
				t.Fatalf("%s: Triple.grad allocates %.0f times on %d nonzeros", sh.name, a, mat.CountNonzeros(w, 0))
			}
		}
	}

	p, err := data.LoadWith("covtype", 24000, 54, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := slices.Clone(FillTriple(p.X, p.Y, 2, nil).vals)
	bad := newTriple(vals, 54, p.X.Cols, 2)
	bad.g.Set(3, 3, math.Inf(1))
	bad.prepare(nil)
	o := Defaults()
	o.Lambda = 0.1 * lambdaMax(p)
	o.MaxIter, o.GradMapTol = 60, 1e-5
	got, err := SolveTriple(context.Background(), bad, perf.Comet(), o)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"support-aware": got, "dense": denseSolveTriple(bad, o)} {
		if res.Converged || res.Iters != o.MaxIter || !math.IsNaN(res.GradMap) {
			t.Fatalf("Inf in G, %s product: converged %t after %d iters, gradmap %g", name, res.Converged, res.Iters, res.GradMap)
		}
	}
}
