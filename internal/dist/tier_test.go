package dist

import (
	"fmt"
	"math"
	"testing"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TestParseTier pins the CLI spellings and the rejection of unknowns.
func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"", TierF64, true}, {"off", TierF64, true}, {"f64", TierF64, true},
		{"f32", TierF32, true}, {"i8", TierI8, true},
		{"auto", 0, false}, {"int8", 0, false}, {"F32", 0, false},
	} {
		got, err := ParseTier(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseTier(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseTier(%q) accepted", tc.in)
		}
	}
	if TierI8.String() != "i8" || TierF32.String() != "f32" || TierF64.String() != "f64" {
		t.Fatal("Tier.String spellings drifted")
	}
}

// TestEffectiveTier: i8 floors to f32 below MinI8Payload, everything
// else passes through.
func TestEffectiveTier(t *testing.T) {
	if got := EffectiveTier(TierI8, MinI8Payload-1); got != TierF32 {
		t.Fatalf("short i8 payload → %v, want f32", got)
	}
	if got := EffectiveTier(TierI8, MinI8Payload); got != TierI8 {
		t.Fatalf("full i8 payload → %v, want i8", got)
	}
	if got := EffectiveTier(TierF32, 1); got != TierF32 {
		t.Fatalf("f32 scalar → %v, want f32", got)
	}
	if got := EffectiveTier(TierF64, 1); got != TierF64 {
		t.Fatalf("f64 scalar → %v, want f64", got)
	}
}

// TestTierSecondsOrdering: with per-tier betas present, modeled time
// strictly decreases down the ladder for bandwidth-bound payloads, and
// the words charged per tier strictly decrease as the ISSUE's ladder
// promises (f64 > f32 > i8).
func TestTierSecondsOrdering(t *testing.T) {
	m := perf.Machine{Name: "t", Alpha: 1e-6, Beta: 1.42e-10, Gamma: 4e-10,
		BetaF32: 1.42e-10, BetaI8: 1.42e-10}
	const p, n = 8, 4096
	f64s := TierSeconds(m, p, n, TierF64)
	f32s := TierSeconds(m, p, n, TierF32)
	i8s := TierSeconds(m, p, n, TierI8)
	if !(f64s > f32s && f32s > i8s) {
		t.Fatalf("modeled seconds not strictly decreasing: f64=%g f32=%g i8=%g", f64s, f32s, i8s)
	}
	w64 := AllreduceCostTier(p, n, TierF64).Words
	w32 := AllreduceCostTier(p, n, TierF32).Words
	w8 := AllreduceCostTier(p, n, TierI8).Words
	if !(w64 > w32 && w32 > w8) {
		t.Fatalf("charged words not strictly decreasing: f64=%d f32=%d i8=%d", w64, w32, w8)
	}
}

// TestConformanceI8Allreduce: every backend exposes the int8 dithered
// collective, its results are bit-identical across backends AND to an
// in-process combine oracle replay, and the cost counters reflect
// the compressed perf.I8Words footprint.
func TestConformanceI8Allreduce(t *testing.T) {
	const p = 4
	const rounds = 5
	const n = 70 // spans two codec chunks, exercises the partial tail
	initState := func(rank int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = math.Sin(float64(i*7+rank*3)) * math.Pow(10, float64(i%5-2))
		}
		return s
	}
	perturb := func(s []float64, rank, round int) {
		for i := range s {
			s[i] += 1e-3 * float64(rank+1) * float64(round) * math.Cos(float64(i))
		}
	}

	// Sequential oracle: the exact i8 combine arithmetic over the raw
	// contributions, twice per round (blocking then nonblocking).
	oracle := func() []float64 {
		states := make([][]float64, p)
		for r := range states {
			states[r] = initState(r)
		}
		for round := 0; round < rounds; round++ {
			if round > 0 {
				for r := range states {
					perturb(states[r], r, round)
				}
			}
			res := make([]float64, n)
			combine(res, states, TierI8)
			mid := make([][]float64, p)
			for r := range mid {
				mid[r] = res
			}
			res2 := make([]float64, n)
			combine(res2, mid, TierI8)
			for r := range states {
				states[r] = append([]float64(nil), res2...)
			}
		}
		return states[0]
	}()

	program := func(w World) ([][]float64, []perf.Cost) {
		out := make([][]float64, p)
		err := w.Run(func(c Comm) error {
			if err := SupportsTier(c, TierI8); err != nil {
				return fmt.Errorf("backend comm %T: %v", c, err)
			}
			state := initState(c.Rank())
			for round := 0; round < rounds; round++ {
				if round > 0 {
					perturb(state, c.Rank(), round)
				}
				res := AllreduceSharedTier(c, state, TierI8)
				req := IAllreduceSharedTier(c, res, TierI8)
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
			costs[r] = w.RankCost(r)
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
	lg := int64(perf.Log2Ceil(p))
	wantWords := 2 * rounds * lg * perf.I8Words(n)
	for _, res := range results {
		for r := 0; r < p; r++ {
			for i := range res.out[r] {
				if math.Float64bits(res.out[r][i]) != math.Float64bits(oracle[i]) {
					t.Fatalf("%s rank %d word %d: got %x, oracle %x",
						res.name, r, i, math.Float64bits(res.out[r][i]), math.Float64bits(oracle[i]))
				}
			}
			if res.costs[r].Words != wantWords {
				t.Fatalf("%s rank %d charged %d words, want i8 footprint %d",
					res.name, r, res.costs[r].Words, wantWords)
			}
		}
	}
}

// TestSelfCommI8MatchesP1World: the single-rank communicator quantizes
// exactly like a 1-rank world on any backend, so P=1 serving paths and
// P>1 solves observe the same collective semantics.
func TestSelfCommI8MatchesP1World(t *testing.T) {
	local := make([]float64, 100)
	for i := range local {
		local[i] = math.Cos(float64(i)) * 3e4
	}
	self := NewSelfComm(unitMachine())
	want := self.AllreduceSharedI8(local)
	wantN := self.IAllreduceSharedI8(local).Wait()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(wantN[i]) {
			t.Fatalf("self blocking/nonblocking diverge at %d", i)
		}
	}
	forEachBackend(t, func(t *testing.T, backend string) {
		w := mustWorld(t, backend, 1)
		if err := w.Run(func(c Comm) error {
			got := AllreduceSharedTier(c, local, TierI8)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("word %d: world %x, self %x",
						i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
