package rng

import (
	"slices"
	"sync"
)

// positions holds the dense position tables of AppendSample, one per
// concurrent drawer. Between calls a table p is the identity: p[i] == i
// for every i < len(p). A table grows to the largest n it has served.
var positions = sync.Pool{New: func() any { return new([]int) }}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n), in the order they were drawn. It panics if k > n or if
// either argument is negative.
func (r *Rng) SampleWithoutReplacement(n, k int) []int {
	return r.AppendSample(make([]int, 0, k), n, k)
}

// AppendSample appends the k indices SampleWithoutReplacement(n, k)
// would return to dst and returns the extended slice. The output and
// the generator's state afterwards are identical to that call's.
//
// The draw is a partial Fisher-Yates over the identity permutation of
// [0, n): step i draws j from [i, n), emits the value at position j and
// moves the value at position i into j. The permutation is a dense
// position table reused between calls, so a call costs O(k) time and,
// once the table and dst have grown, allocates nothing. Only the drawn
// js are written, and a j >= k still held its own index when first
// drawn, so the js beyond k are exactly the emitted values beyond k:
// resetting p[i] = i for i < k and p[v] = v for every emitted v returns
// the table to the identity.
func (r *Rng) AppendSample(dst []int, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if k == 0 {
		return dst
	}
	tp := positions.Get().(*[]int)
	for i := len(*tp); i < n; i++ {
		*tp = append(*tp, i)
	}
	p := (*tp)[:n]
	base := len(dst)
	dst = slices.Grow(dst, k)[:base+k]
	out := dst[base:]
	for i := range out {
		j := i + r.Intn(n-i)
		out[i] = p[j]
		p[j] = p[i]
	}
	for i, v := range out {
		p[i], p[v] = i, v
	}
	positions.Put(tp)
	return dst
}

// Bernoulli returns true with probability p.
func (r *Rng) Bernoulli(p float64) bool {
	return r.Float64() < p
}
