package solvercore

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestVoteTrailerMovesNoPayloadBit: at every tier, blocking and posted,
// a round carrying the vote trailer returns exactly the payload bits
// and charges exactly the cost of the same collective without it,
// while every rank reads the same vote — a lone flag of 1 included,
// beside payload chunks of magnitude 1e6.
func TestVoteTrailerMovesNoPayloadBit(t *testing.T) {
	const procs = 3
	for _, tier := range []dist.Tier{dist.TierF64, dist.TierF32, dist.TierI8} {
		for _, n := range []int{37, 64, 130} {
			for _, voter := range []int{-1, 0, procs - 1} {
				for _, posted := range []bool{false, true} {
					name := fmt.Sprintf("%v/n=%d/voter=%d/posted=%t", tier, n, voter, posted)
					w := dist.NewWorld(procs, perf.Comet())
					err := w.Run(func(c dist.Comm) error {
						local := make([]float64, n, n+trailerCap)
						for i := range local {
							local[i] = float64(c.Rank()+1) * 1e6 * math.Sin(float64(i+1))
						}
						before := *c.Cost()
						want := dist.AllreduceSharedTier(c, local, tier)
						wantCost := c.Cost().Sub(before)

						ex := &TieredExchanger{C: c, TierOf: func(int) dist.Tier { return tier }}
						before = *c.Cost()
						var got []float64
						var vote Vote
						if posted {
							got, vote = ex.Resolve(ex.Post(local, c.Rank() == voter))
						} else {
							got, vote = ex.Exchange(local, c.Rank() == voter)
						}
						if cost := c.Cost().Sub(before); cost != wantCost {
							return fmt.Errorf("rank %d: cost %v, payload alone %v", c.Rank(), cost, wantCost)
						}
						if len(got) != n {
							return fmt.Errorf("rank %d: %d shared values, want %d", c.Rank(), len(got), n)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("rank %d: value %d = %g, without the trailer %g", c.Rank(), i, got[i], want[i])
							}
						}
						wantVote := VoteContinue
						if voter >= 0 {
							wantVote = VoteCancel
						}
						if vote != wantVote {
							return fmt.Errorf("rank %d: vote %d, want %d", c.Rank(), vote, wantVote)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestVoteAtI8OpensAChunk pins the trailer layout: the flag sits right
// behind the payload under f64 and f32, and at the next i8 chunk
// boundary under i8.
func TestVoteAtI8OpensAChunk(t *testing.T) {
	c := perf.I8ChunkLen
	for _, tc := range []struct {
		n    int
		tier dist.Tier
		want int
	}{
		{37, dist.TierF64, 37}, {37, dist.TierF32, 37},
		{37, dist.TierI8, c}, {c, dist.TierI8, c}, {c + 1, dist.TierI8, 2 * c},
	} {
		if got := voteAt(tc.n, tc.tier); got != tc.want {
			t.Errorf("voteAt(%d, %v) = %d, want %d", tc.n, tc.tier, got, tc.want)
		}
		if wire := appendVote(make([]float64, tc.n, tc.n+trailerCap), true, tc.tier); len(wire) != tc.want+1 || wire[tc.want] != 1 {
			t.Errorf("appendVote(%d, %v): %d values, flag %g", tc.n, tc.tier, len(wire), wire[len(wire)-1])
		}
	}
}
