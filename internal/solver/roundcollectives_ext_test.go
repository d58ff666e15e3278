package solver_test

import (
	"context"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/cocoa"
	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/erm"
	"github.com/hpcgo/rcsfista/internal/mat"
	"github.com/hpcgo/rcsfista/internal/perf"
	"github.com/hpcgo/rcsfista/internal/solver"
	"github.com/hpcgo/rcsfista/internal/solvercore"
)

// TestRoundVoteRidesTheBatch: for every other solver on the round loop
// (ProxCoCoA's m-word segment, the distributed Proximal Newton's
// gradient and Hessian segments), the vote rides the round's last
// collective. Against the same solve with a standalone consensus before
// every batch, a solve issues exactly Rounds fewer collectives — and no
// OpMax one at all — while its iterate and Cost are bit-identical: the
// trailer is billed to no one.
func TestRoundVoteRidesTheBatch(t *testing.T) {
	p := data.Generate(data.GenSpec{D: 16, M: 240, Density: 0.6, Lambda: 0.05, Seed: 61})
	d, m := p.X.Rows, p.X.Cols
	const procs = 3
	xRows := p.X.ToCSR()
	cases := []struct {
		name string
		// batch is the payload length of the collective the trailer
		// rides, trailer included.
		batch int
		solve func(ctx context.Context, c dist.Comm) (*solver.Result, error)
	}{
		{"cocoa", m + 1, func(ctx context.Context, c dist.Comm) (*solver.Result, error) {
			return cocoa.SolveContext(ctx, c, cocoa.Partition(xRows, p.Y, c.Size(), c.Rank()),
				cocoa.Options{Lambda: p.Lambda, Rounds: 12, Seed: 3})
		}},
		{"erm", mat.PackedLen(d) + 1, func(ctx context.Context, c dist.Comm) (*solver.Result, error) {
			return erm.DistProxNewtonContext(ctx, c, erm.Partition(p.X, p.Y, c.Size(), c.Rank()),
				erm.Options{Lambda: p.Lambda, OuterIter: 6, InnerIter: 10, B: 0.5, LineSearch: true, Seed: 3})
		}},
	}
	for _, tc := range cases {
		run := func(voteAt int) (*solver.Result, []*solver.CallCounter) {
			counters := make([]*solver.CallCounter, procs)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := solvercore.RunWorld(dist.NewWorld(procs, perf.Comet()), func(c dist.Comm) (*solver.Result, error) {
				cc := &solver.CallCounter{Comm: c, VoteAt: voteAt}
				counters[c.Rank()] = cc
				return tc.solve(ctx, cc)
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res, counters
		}
		res, counters := run(0)
		ref, refCounters := run(tc.batch)
		if res.Rounds == 0 || res.Rounds != ref.Rounds {
			t.Fatalf("%s: %d rounds vs %d", tc.name, res.Rounds, ref.Rounds)
		}
		if res.Cost != ref.Cost {
			t.Errorf("%s: cost %+v, with a standalone consensus %+v", tc.name, res.Cost, ref.Cost)
		}
		for i := range res.W {
			if math.Float64bits(res.W[i]) != math.Float64bits(ref.W[i]) {
				t.Fatalf("%s: W[%d] %.17g vs %.17g", tc.name, i, res.W[i], ref.W[i])
			}
		}
		for rank, cc := range counters {
			if got := cc.Count("", tc.batch); got != res.Rounds {
				t.Errorf("%s rank %d: %d trailer-carrying collectives for %d rounds", tc.name, rank, got, res.Rounds)
			}
			if got := cc.Count("allreduce/max", -1); got != 0 {
				t.Errorf("%s rank %d: %d standalone OpMax collectives, want none", tc.name, rank, got)
			}
			if got, with := len(cc.Log), len(refCounters[rank].Log); with-got != res.Rounds {
				t.Errorf("%s rank %d: %d collectives, %d with a standalone consensus: want exactly %d (Rounds) fewer",
					tc.name, rank, got, with, res.Rounds)
			}
		}
	}
}
