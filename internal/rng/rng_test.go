package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced constant zeros")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(10)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 500 {
			t.Fatalf("bucket %d: %d draws, want ~%d", b, c, n/buckets)
		}
	}
}

// mul64 is the portable four-multiply 128-bit product Intn used before
// math/bits.Mul64: the reference the intrinsic must match bit for bit.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// refIntn is Intn over mul64.
func refIntn(r *Rng, n int) int {
	bound := uint64(n)
	for {
		hi, lo := mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func TestMul64MatchesReference(t *testing.T) {
	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1 << 63, math.MaxUint64}
	check := func(a, b uint64) {
		h, l := bits.Mul64(a, b)
		if rh, rl := mul64(a, b); h != rh || l != rl {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, h, l, rh, rl)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(20)
	for i := 0; i < 1_000_000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}

func TestIntnMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1<<32 + 1, math.MaxInt} {
		a, b := New(uint64(n)), New(uint64(n))
		for i := 0; i < 10000; i++ {
			if x, y := a.Intn(n), refIntn(b, n); x != y {
				t.Fatalf("Intn(%d) draw %d = %d, reference %d", n, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Intn(%d) consumed a different number of values than the reference", n)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal moments: mean=%g var=%g", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for _, n := range []int{0, 1, 2, 17} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has %d entries", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(13)
	x := []int{1, 2, 2, 3, 5, 8}
	sum := 0
	for _, v := range x {
		sum += v
	}
	r.Shuffle(x)
	got := 0
	for _, v := range x {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed contents: %v", x)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := New(14)
	f := func(seed uint32) bool {
		rr := New(uint64(seed))
		n := 1 + rr.Intn(200)
		k := rr.Intn(n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := New(15)
	s := r.SampleWithoutReplacement(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full sample missing %d: %v", i, s)
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each index should appear with probability k/n.
	r := New(16)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("index %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestBernoulli(t *testing.T) {
	r := New(18)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %g", float64(hits)/n)
	}
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) fired")
	}
}

func TestSourceStreamsDeterministic(t *testing.T) {
	s1 := NewSource(42)
	s2 := NewSource(42)
	a := s1.Stream(3, 17)
	b := s2.Stream(3, 17)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, epoch, iter) stream diverged")
		}
	}
}

func TestSourceStreamsIndependent(t *testing.T) {
	s := NewSource(42)
	pairs := [][2]int{{0, 0}, {0, 1}, {1, 0}, {7, 7}, {7, 8}}
	outs := map[uint64]bool{}
	for _, p := range pairs {
		v := s.Stream(p[0], p[1]).Uint64()
		if outs[v] {
			t.Fatalf("stream collision for %v", p)
		}
		outs[v] = true
	}
}

func TestSourceSeed(t *testing.T) {
	if NewSource(99).Seed() != 99 {
		t.Fatal("Seed() wrong")
	}
}

func TestSampleSetIsPureFunctionOfStream(t *testing.T) {
	// The property the distributed solver relies on: any process can
	// regenerate the iteration-n sample set from (seed, epoch, n).
	src := NewSource(1234)
	a := src.Stream(1, 55).SampleWithoutReplacement(1000, 100)
	b := NewSource(1234).Stream(1, 55).SampleWithoutReplacement(1000, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample sets differ across processes")
		}
	}
}
