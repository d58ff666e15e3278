// Package rng provides a deterministic, splittable pseudo-random number
// generator for the solvers and workload generators.
//
// The key requirement (paper Sections 5.2 and 5.5) is that every
// processor draws the *same* random sample set at every iteration
// without communicating: the sample index set must be a pure function of
// (seed, epoch, iteration). Package rng achieves this by deriving an
// independent xoshiro256** stream from the tuple via SplitMix64 mixing,
// the initialization recommended by the xoshiro authors.
//
// Every rank draws the whole shared set each round although it keeps
// only its own columns, so the draw sits on the critical path of every
// round. AppendSample runs its partial Fisher-Yates on a dense position
// table reused between calls and into a caller-kept buffer: after the
// first call a draw of k indices from [0, n) is O(k) and allocates
// nothing. The table holds n words; a sync.Pool keeps one per
// concurrent drawer.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rng is a xoshiro256** generator. The zero value is not usable; create
// instances with New or Source.Stream.
type Rng struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *Rng {
	// Small enough to inline, so a generator that does not outlive its
	// caller stays off the heap.
	return &Rng{s: seedState(seed)}
}

// seedState expands seed into a xoshiro state by SplitMix64.
func seedState(seed uint64) [4]uint64 {
	var s [4]uint64
	st := seed
	for i := range s {
		s[i] = splitMix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rng) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia
// polar method.
func (r *Rng) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func (r *Rng) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Source derives independent streams from a base seed. Streams obtained
// for identical (epoch, iter) tuples are identical across all processes
// holding the same Source, which is how every rank agrees on the sample
// set with zero communication.
type Source struct {
	seed uint64
}

// NewSource returns a stream-splittable source for seed.
func NewSource(seed uint64) Source { return Source{seed: seed} }

// Stream returns the generator for iteration iter of epoch. Like New it
// inlines, so a per-round stream need not reach the heap.
func (s Source) Stream(epoch, iter int) *Rng {
	return &Rng{s: s.streamState(epoch, iter)}
}

// streamState is the xoshiro state of stream (epoch, iter).
func (s Source) streamState(epoch, iter int) [4]uint64 {
	st := s.seed
	mixed := splitMix64(&st)
	st = mixed ^ (uint64(epoch)+0x632be59bd9b4e019)*0xff51afd7ed558ccd
	mixed = splitMix64(&st)
	st = mixed ^ (uint64(iter)+0x9e3779b97f4a7c15)*0xc4ceb9fe1a85ec53
	return seedState(splitMix64(&st))
}

// Seed returns the base seed of the source.
func (s Source) Seed() uint64 { return s.seed }
