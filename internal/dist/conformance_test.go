package dist

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// Transport conformance suite: both transports must present the
// identical Comm contract — same collective results bit for bit, same
// cost counters, same abort behavior, no goroutine leaks.

// transports names the worlds NewWorldOn builds, the suite's axis.
var transports = []string{"chan", "tcp"}

// forEachBackend runs f once per transport, as a subtest named after it.
func forEachBackend(t *testing.T, f func(t *testing.T, backend string)) {
	t.Helper()
	for _, name := range transports {
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

func mustWorld(t *testing.T, backend string, p int) World {
	t.Helper()
	w, err := NewWorldOn(backend, p, unitMachine())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestConformanceRegistry: NewWorldOn's names — chan, tcp, "auto" and
// "" — resolve to a working world of the asked size, "auto" and "" to
// the chan world; an unknown name or a world of fewer than one rank is
// refused.
func TestConformanceRegistry(t *testing.T) {
	for _, name := range []string{"chan", "tcp", "auto", ""} {
		w, err := NewWorldOn(name, 2, unitMachine())
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		_, isChan := w.(*chanWorld)
		if wantChan := name != "tcp"; isChan != wantChan {
			t.Fatalf("%q built a %T", name, w)
		}
		if err := w.Run(func(c Comm) error {
			if got := AllreduceScalar(c, 1, OpSum); got != 2 {
				return fmt.Errorf("rank %d summed %g", c.Rank(), got)
			}
			return nil
		}); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := NewWorldOn("smoke-signals", 2, unitMachine()); err == nil {
		t.Fatal("unknown transport name resolved")
	}
	for _, name := range transports {
		for _, p := range []int{0, -1} {
			if _, err := NewWorldOn(name, p, unitMachine()); err == nil {
				t.Fatalf("%s: %d-rank world created", name, p)
			}
		}
	}
}

// TestConformanceCollectives: the full collective surface produces
// correct values on every backend, at P values covering the golden
// grid and an odd world, with every rank taking its turn as root.
func TestConformanceCollectives(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, p := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
				w := mustWorld(t, backend, p)
				err := w.Run(func(c Comm) error {
					r := float64(c.Rank())
					// Allreduce sum and max.
					buf := []float64{r, 1, -r}
					c.Allreduce(buf, OpSum)
					pf := float64(p)
					if buf[1] != pf || buf[0] != pf*(pf-1)/2 {
						return fmt.Errorf("allreduce sum: %v", buf)
					}
					buf = []float64{r}
					c.Allreduce(buf, OpMax)
					if buf[0] != pf-1 {
						return fmt.Errorf("allreduce max: %v", buf)
					}
					// AllreduceShared.
					res := c.AllreduceShared([]float64{r, 2})
					if res[0] != pf*(pf-1)/2 || res[1] != 2*pf {
						return fmt.Errorf("allreduce shared: %v", res)
					}
					// Nonblocking allreduce, two overlapping rounds.
					req1 := c.IAllreduceShared([]float64{r})
					req2 := c.IAllreduceShared([]float64{1})
					if got := req2.Wait()[0]; got != pf {
						return fmt.Errorf("iallreduce round 2: %g", got)
					}
					if got := req1.Wait()[0]; got != pf*(pf-1)/2 {
						return fmt.Errorf("iallreduce round 1: %g", got)
					}
					for root := 0; root < p; root++ {
						// Bcast from every root.
						bc := []float64{r + 1, -r}
						if c.Rank() == root {
							bc = []float64{42, float64(root)}
						}
						c.Bcast(bc, root)
						if bc[0] != 42 || bc[1] != float64(root) {
							return fmt.Errorf("bcast from %d: %v", root, bc)
						}
						// Reduce to every root.
						rd := []float64{r, 1}
						c.Reduce(rd, OpSum, root)
						if c.Rank() == root && (rd[0] != pf*(pf-1)/2 || rd[1] != pf) {
							return fmt.Errorf("reduce at root %d: %v", root, rd)
						}
						if c.Rank() != root && (rd[0] != r || rd[1] != 1) {
							return fmt.Errorf("reduce to %d clobbered non-root buf: %v", root, rd)
						}
					}
					// Allgather with ragged lengths.
					local := make([]float64, c.Rank()+1)
					for i := range local {
						local[i] = r
					}
					gath := c.Allgather(local)
					if len(gath) != p*(p+1)/2 {
						return fmt.Errorf("allgather length %d", len(gath))
					}
					idx := 0
					for src := 0; src < p; src++ {
						for i := 0; i <= src; i++ {
							if gath[idx] != float64(src) {
								return fmt.Errorf("allgather[%d] = %g, want %d", idx, gath[idx], src)
							}
							idx++
						}
					}
					// Point-to-point ring.
					c.Send((c.Rank()+1)%p, []float64{r})
					got := c.Recv((c.Rank() + p - 1) % p)
					if got[0] != float64((c.Rank()+p-1)%p) {
						return fmt.Errorf("ring recv: %v", got)
					}
					c.Barrier()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// cancelling is rank's contribution to a sum that is not associative:
// 1e16, 1, -1e16, 1, ... by rank. Folded left to right from rank 0 the
// ones that meet 1e16 are absorbed and the rest survive; any other
// order or grouping gives other bits.
func cancelling(rank int) float64 {
	switch rank % 4 {
	case 0:
		return 1e16
	case 2:
		return -1e16
	}
	return 1
}

// TestConformanceCrossBackendBitIdentity: the same reduction-heavy
// program produces bit-identical results AND bit-identical cost
// counters on every backend — the property that lets one golden
// fixture set serve as the oracle for all transports. The in-place
// Allreduce of cancelling values is also held to the ascending
// rank-order fold itself, on an odd world and at P = 8.
func TestConformanceCrossBackendBitIdentity(t *testing.T) {
	const rounds = 6
	program := func(w World) ([][]float64, []perf.Cost) {
		p := w.Size()
		out := make([][]float64, p)
		err := w.Run(func(c Comm) error {
			// Ill-conditioned contributions: summation order changes the
			// bits, so agreement means the combine order matched exactly.
			state := []float64{1e-16 * float64(c.Rank()+1), 1, 1e16 * float64(c.Rank()%2*2-1)}
			for i := 0; i < rounds; i++ {
				res := c.AllreduceShared(state)
				req := c.IAllreduceShared(res)
				state = append([]float64(nil), req.Wait()...)
				state[0] += 0.1 * float64(c.Rank()) * state[1]
				c.Allreduce(state, OpSum)
			}
			sum := []float64{cancelling(c.Rank()), cancelling(c.Rank() + 1)}
			c.Allreduce(sum, OpSum)
			want := []float64{cancelling(0), cancelling(1)}
			for r := 1; r < p; r++ {
				want[0] += cancelling(r)
				want[1] += cancelling(r + 1)
			}
			if sum[0] != want[0] || sum[1] != want[1] {
				return fmt.Errorf("rank %d: allreduce gave %v, the rank-order fold is %v", c.Rank(), sum, want)
			}
			root := p - 1
			c.Reduce(state, OpSum, root)
			c.Bcast(state, root)
			out[c.Rank()] = append(state, sum...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]perf.Cost, p)
		for r := 0; r < p; r++ {
			costs[r] = perf.Cost(w.RankCost(r))
		}
		return out, costs
	}

	type result struct {
		name  string
		out   [][]float64
		costs []perf.Cost
	}
	for _, p := range []int{3, 4, 8} {
		var results []result
		forEachBackend(t, func(t *testing.T, backend string) {
			out, costs := program(mustWorld(t, backend, p))
			results = append(results, result{backend, out, costs})
		})
		if len(results) < 2 {
			t.Skip("fewer than two supported backends")
		}
		ref := results[0]
		for _, got := range results[1:] {
			for r := 0; r < p; r++ {
				for i := range ref.out[r] {
					if math.Float64bits(ref.out[r][i]) != math.Float64bits(got.out[r][i]) {
						t.Fatalf("P=%d rank %d word %d: %s=%x %s=%x", p, r, i,
							ref.name, math.Float64bits(ref.out[r][i]),
							got.name, math.Float64bits(got.out[r][i]))
					}
				}
				if ref.costs[r] != got.costs[r] {
					t.Fatalf("P=%d rank %d cost diverged: %s=%+v %s=%+v", p, r,
						ref.name, ref.costs[r], got.name, got.costs[r])
				}
			}
		}
	}
}

// TestConformanceCompressedAllreduce: every backend exposes the
// compressed collective, its results are bit-identical across backends
// (rounded contributions, rank-order float64 sum, rounded result), and
// the cost counters reflect the halved wire footprint — ceil(n/2)
// 64-bit words per tree level instead of n.
func TestConformanceCompressedAllreduce(t *testing.T) {
	const p = 4
	const rounds = 5
	program := func(w World) ([][]float64, []perf.Cost) {
		out := make([][]float64, p)
		err := w.Run(func(c Comm) error {
			f32, ok := c.(F32Allreducer)
			if !ok {
				return fmt.Errorf("backend comm %T does not implement F32Allreducer", c)
			}
			// Values that stress the quantizer: magnitudes float32 cannot
			// hold exactly, a signed zero, an odd payload length (the
			// ceil(n/2) word charge), and feedback across rounds.
			state := []float64{math.Pi * float64(c.Rank()+1), 1.0 / 3, math.Copysign(0, -1),
				1e-30 * float64(c.Rank()), 3}
			for i := 0; i < rounds; i++ {
				if i > 0 {
					// Diverge the contributions between rounds so later
					// rounds re-exercise the quantizer.
					state[0] += 1e-4 * float64(c.Rank()) * state[4]
				}
				res := f32.AllreduceSharedF32(state)
				req := f32.IAllreduceSharedF32(res)
				state = append([]float64(nil), req.Wait()...)
			}
			out[c.Rank()] = state
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]perf.Cost, p)
		for r := 0; r < p; r++ {
			costs[r] = perf.Cost(w.RankCost(r))
		}
		return out, costs
	}

	type result struct {
		name  string
		out   [][]float64
		costs []perf.Cost
	}
	var results []result
	forEachBackend(t, func(t *testing.T, backend string) {
		out, costs := program(mustWorld(t, backend, p))
		results = append(results, result{backend, out, costs})
	})
	if len(results) == 0 {
		t.Skip("no supported backends")
	}
	// Every result word must be exactly float32-representable (the final
	// rounding is part of the collective's contract), and the charged
	// words must be the compressed footprint.
	lg := int64(perf.Log2Ceil(p))
	wantWords := 2 * rounds * lg * int64((5+1)/2) // 2 collectives/round, 5 f32 values each
	for _, res := range results {
		for r := 0; r < p; r++ {
			for i, v := range res.out[r] {
				if math.Float64bits(F32Round(v)) != math.Float64bits(v) {
					t.Fatalf("%s rank %d word %d not float32-representable: %x",
						res.name, r, i, math.Float64bits(v))
				}
			}
			if res.costs[r].Words != wantWords {
				t.Fatalf("%s rank %d charged %d words, want compressed %d",
					res.name, r, res.costs[r].Words, wantWords)
			}
		}
	}
	ref := results[0]
	for _, got := range results[1:] {
		for r := 0; r < p; r++ {
			for i := range ref.out[r] {
				if math.Float64bits(ref.out[r][i]) != math.Float64bits(got.out[r][i]) {
					t.Fatalf("rank %d word %d: %s=%x %s=%x", r, i,
						ref.name, math.Float64bits(ref.out[r][i]),
						got.name, math.Float64bits(got.out[r][i]))
				}
			}
			if ref.costs[r] != got.costs[r] {
				t.Fatalf("rank %d cost diverged: %s=%+v %s=%+v", r,
					ref.name, ref.costs[r], got.name, got.costs[r])
			}
		}
	}
}

// TestConformanceAbort: a failing rank aborts the world on every
// backend — ranks parked in collectives are released, the error
// surfaces from Run, and no goroutine survives.
func TestConformanceAbort(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		baseline := runtime.NumGoroutine()
		w := mustWorld(t, backend, 4)
		bang := errors.New("bang")
		err := w.Run(func(c Comm) error {
			if c.Rank() == 2 {
				return bang
			}
			c.Barrier()
			c.Allreduce(make([]float64, 8), OpSum)
			return errors.New("survived an aborted world")
		})
		if !errors.Is(err, bang) {
			t.Fatalf("err = %v, want injected failure", err)
		}
		VerifyNoGoroutineLeaks(t, baseline)
	})
}

// TestConformancePanicRecovery: a panicking rank is reported as an
// error, not a process crash, on every backend.
func TestConformancePanicRecovery(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		baseline := runtime.NumGoroutine()
		w := mustWorld(t, backend, 3)
		err := w.Run(func(c Comm) error {
			if c.Rank() == 1 {
				panic("kaboom")
			}
			c.Barrier()
			return nil
		})
		if err == nil {
			t.Fatal("panic did not surface as a Run error")
		}
		VerifyNoGoroutineLeaks(t, baseline)
	})
}

// TestConformanceLeakFree: a clean multi-Run lifecycle releases every
// goroutine and keeps accumulating costs until ResetCosts.
func TestConformanceLeakFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		baseline := runtime.NumGoroutine()
		w := mustWorld(t, backend, 4)
		for i := 0; i < 3; i++ {
			if err := w.Run(func(c Comm) error {
				c.Allreduce(make([]float64, 16), OpSum)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.RankCost(0).Messages; got != 3*2 {
			t.Fatalf("3 runs accumulated %d messages, want 6", got)
		}
		w.ResetCosts()
		if got := w.RankCost(0); got != (perf.Cost{}) {
			t.Fatalf("ResetCosts left %+v", got)
		}
		if len(w.Profile()) == 0 {
			t.Fatal("profile recorded nothing")
		}
		VerifyNoGoroutineLeaks(t, baseline)
	})
}

// tieredPayload is rank's n-value contribution to the tiered
// conformance table: a NaN carrying payload bits, a negative zero,
// magnitudes float32 cannot hold and a wide dynamic range within one
// i8 chunk, so every tier's rounding is actually exercised.
func tieredPayload(rank, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(float64(i*7+rank*3)) * math.Pow(10, float64(i%5-2))
	}
	s[0] = math.Copysign(0, -1)
	if rank == 1 && n > 1 {
		s[1] = math.Float64frombits(0x7ff8_0000_dead_beef)
	}
	if n > 2 {
		s[2] = math.Pi * float64(rank+1)
	}
	return s
}

// TestConformanceTieredAllreduce is the tier table's contract on every
// backend × tier × {blocking, nonblocking} × P: the shared result is
// bit-equal to combine over the raw contributions — on every rank, for
// an odd length spanning two i8 chunks and a length below MinI8Payload
// — and each rank is charged exactly AllreduceCostTier.
func TestConformanceTieredAllreduce(t *testing.T) {
	// target is one fresh P-rank substrate: how to run a program on it
	// and how to read a rank's accumulated cost afterwards.
	type target struct {
		run  func(fn func(c Comm) error) error
		cost func(r int) perf.Cost
	}
	check := func(t *testing.T, p int, fresh func() target) {
		for tier := range tiers {
			tier := Tier(tier)
			for _, nonblocking := range []bool{false, true} {
				for _, n := range []int{MinI8Payload - 27, 71} {
					contrib := make([][]float64, p)
					for r := range contrib {
						contrib[r] = tieredPayload(r, n)
					}
					want := make([]float64, n)
					combine(want, contrib, tier)
					name := fmt.Sprintf("P%d/%v/nonblocking=%v/n%d", p, tier, nonblocking, n)
					tg := fresh()
					err := tg.run(func(c Comm) error {
						if err := SupportsTier(c, tier); err != nil {
							return err
						}
						var got []float64
						if nonblocking {
							got = IAllreduceSharedTier(c, tieredPayload(c.Rank(), n), tier).Wait()
						} else {
							got = AllreduceSharedTier(c, tieredPayload(c.Rank(), n), tier)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("rank %d word %d: got %x, combine gives %x",
									c.Rank(), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for r := 0; r < p; r++ {
						if got, want := tg.cost(r), AllreduceCostTier(p, n, tier); got != want {
							t.Fatalf("%s: rank %d charged %+v, want %+v", name, r, got, want)
						}
					}
				}
			}
		}
	}
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, p := range []int{1, 2, 3, 4} {
			check(t, p, func() target {
				w := mustWorld(t, backend, p)
				return target{w.Run, w.RankCost}
			})
		}
	})
	t.Run("self", func(t *testing.T) {
		check(t, 1, func() target {
			c := NewSelfComm(unitMachine())
			return target{
				run:  func(fn func(c Comm) error) error { return fn(c) },
				cost: func(int) perf.Cost { return *c.Cost() },
			}
		})
	})
}

// TestConformanceMixedTierRejected: ranks that enter one shared
// allreduce at different tiers (multi-process mode takes the tier per
// OS process) must fail loudly on every backend, blocking and
// nonblocking, whichever tier the owner (rank 0, for this one-granule
// payload) runs — not return a sum that quietly mixes roundings.
func TestConformanceMixedTierRejected(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, owner := range []Tier{TierF64, TierI8} {
			for _, nonblocking := range []bool{false, true} {
				baseline := runtime.NumGoroutine()
				w := mustWorld(t, backend, 3)
				err := w.Run(func(c Comm) error {
					tier := owner
					if c.Rank() == 2 {
						tier = TierF64 + TierI8 - owner
					}
					local := tieredPayload(c.Rank(), 40)
					if nonblocking {
						IAllreduceSharedTier(c, local, tier).Wait()
					} else {
						AllreduceSharedTier(c, local, tier)
					}
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "tier mismatch") ||
					!strings.Contains(err.Error(), "rank 2") ||
					!strings.Contains(err.Error(), "f64") || !strings.Contains(err.Error(), "i8") {
					t.Fatalf("owner=%v nonblocking=%v: err = %v, want a tier mismatch naming rank 2, f64 and i8",
						owner, nonblocking, err)
				}
				VerifyNoGoroutineLeaks(t, baseline)
			}
		}
	})
}
