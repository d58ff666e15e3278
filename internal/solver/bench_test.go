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
