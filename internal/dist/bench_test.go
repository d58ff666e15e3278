package dist

import (
	"fmt"
	"testing"
)

// The collective benchmarks back `make bench-smoke`: one -benchtime=1x
// pass catches regressions that only show up under the race-free
// goroutine schedule (deadlocks, leaked rounds) without the cost of a
// full benchmark run.

func benchWords(words int) []float64 {
	local := make([]float64, words)
	for i := range local {
		local[i] = float64(i%7) + 0.5
	}
	return local
}

// BenchmarkAllreduceShared times the f64 shared allreduce on every
// backend inside one World.Run, so an iteration is one steady-state
// collective — no world or mesh set-up, warmed buffers — at a scalar, a
// vector, the d=54 k=8 Hessian batch, ls_fill_chan's batch and the
// 4.9 MB batch of ls_bw_tcp. MB/s is payload bytes per rank per second;
// B/op and allocs/op cover all P ranks of the process.
func BenchmarkAllreduceShared(b *testing.B) {
	for _, name := range transports {
		for _, p := range []int{2, 4, 8} {
			for _, n := range []int{1, 1539, 12312, 149760, 619464} {
				b.Run(fmt.Sprintf("%s/P=%d/n=%d", name, p, n), func(b *testing.B) {
					w, err := NewWorldOn(name, p, unitMachine())
					if err != nil {
						b.Fatal(err)
					}
					local := benchWords(n)
					b.SetBytes(int64(8 * n))
					b.ReportAllocs()
					if err := w.Run(func(c Comm) error {
						c.AllreduceShared(local)
						c.Barrier()
						if c.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							c.AllreduceShared(local)
						}
						c.Barrier()
						if c.Rank() == 0 {
							b.StopTimer()
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}

// BenchmarkTierRoundWords exercises the per-tier wire rounding kernel
// and reports the modeled words one rank ships per tree level for a
// 4096-value allreduce at P=8. The ordering of the words/round metric
// — every rung down the quantized ladder ships strictly fewer words
// (f64 > f32 > i8) — is held by TestTierSecondsOrdering, so a cost
// model or codec edit that flattens the ladder fails a test instead of
// silently voiding the compression claim.
func BenchmarkTierRoundWords(b *testing.B) {
	const n = 4096
	for _, tier := range []Tier{TierF64, TierF32, TierI8} {
		b.Run(tier.String(), func(b *testing.B) {
			src := benchWords(n)
			dst := make([]float64, n)
			for i := 0; i < b.N; i++ {
				TierRound(dst, src, tier)
			}
			b.ReportMetric(float64(AllreduceCostTier(8, n, tier).Words), "words/round")
		})
	}
}

func BenchmarkIAllreduceShared(b *testing.B) {
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			local := benchWords(4096)
			next := benchWords(4096)
			for i := 0; i < b.N; i++ {
				w := NewWorld(p, unitMachine())
				if err := w.Run(func(c Comm) error {
					// The pipelined shape: keep one round in flight
					// while "computing" the next buffer.
					req := c.IAllreduceShared(local)
					for r := 0; r < 8; r++ {
						nextReq := c.IAllreduceShared(next)
						req.Wait()
						req = nextReq
					}
					req.Wait()
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
