package solver

import (
	"context"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/prox"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// The engine benchmarks back `make bench-smoke`: a single -benchtime=1x
// pass drives both round loops (blocking and pipelined) end to end
// through engine.run, the seam that picks the loop, so a scheduling bug
// that only a full solve exposes fails CI fast.

func benchSolve(b *testing.B, pipelined bool) {
	b.Helper()
	p := data.Generate(data.GenSpec{D: 24, M: 400, Density: 0.5, Lambda: 0.1, Seed: 7, NoiseStd: 0.01})
	l := prox.EstimateLipschitz(p.X, 50, nil, nil)
	if l <= 0 {
		b.Fatal("non-positive Lipschitz estimate")
	}
	o := Defaults()
	o.Lambda = p.Lambda
	o.Gamma = GammaFromLipschitz(l)
	o.MaxIter = 240
	o.Tol = 0 // fixed budget: identical work per iteration
	o.B = 0.2
	o.K = 4
	o.S = 2
	o.EvalEvery = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := dist.NewWorld(4, perf.Comet())
		_, err := solvercore.RunWorld(w, func(c dist.Comm) (*Result, error) {
			e, err := newEngine(c, Partition(p.X, p.Y, c.Size(), c.Rank()), o)
			if err != nil {
				return nil, err
			}
			return e.run(context.Background(), e, e, pipelined)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCSFISTABlocking(b *testing.B)  { benchSolve(b, false) }
func BenchmarkRCSFISTAPipelined(b *testing.B) { benchSolve(b, true) }

// BenchmarkSolveTriple times one cold served least-squares fit on
// serve_cold's shape and grid: the covtype 24000×54 triple at P = 2
// (data seed 1), l1 at λ/λmax from 0.11 to 0.09 over 8 points, taken in
// turn, at the serving defaults (MaxIter 4000, GradMapTol 1e-5). The
// triple is filled once, outside the timer, as a server keeps it.
func BenchmarkSolveTriple(b *testing.B) {
	p, err := data.LoadWith("covtype", 24000, 54, 1)
	if err != nil {
		b.Fatal(err)
	}
	tri := FillTriple(p.X, p.Y, 2, nil)
	lmax := lambdaMax(p)
	opts := make([]Options, 8)
	for i, ratio := range ratioGrid(0.11, 0.09, len(opts)) {
		o := Defaults()
		o.Lambda = ratio * lmax
		o.MaxIter, o.GradMapTol = 4000, 1e-5
		opts[i] = o
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := SolveTriple(context.Background(), tri, perf.Comet(), opts[i%len(opts)]); err != nil || !res.Converged {
			b.Fatalf("fit %d: %v", i, err)
		}
	}
}
