package perf

import "math"

// Cost model for the active-set screening engine (Options.ActiveSet in
// internal/solver): each round ships a (d+63)/64-word working-set
// agreement bitmap, k reduced Gram slots of a(a+1)/2 + d words (the
// |A| x |A| packed principal submatrix plus the full-length R), and a
// d-word exact-gradient allreduce for the KKT check. The stage-B fill
// flops shrink with packedLen(a) in place of packedLen(d).

// ActiveSetRoundWords returns the wire payload one screened round puts
// on each tree edge with working-set size a: bitmap + k reduced slots +
// exact-gradient check. With a = d this exceeds the dense round payload
// by exactly the bitmap and gradient words — the screening overhead a
// run pays while the working set has not shrunk yet.
func ActiveSetRoundWords(d, k, a int) int64 {
	if k < 1 {
		k = 1
	}
	bitmap := int64((d + 63) / 64)
	slot := int64(a)*int64(a+1)/2 + int64(d)
	return bitmap + int64(k)*slot + int64(d)
}

// ActiveSetRoundWordsF32 is ActiveSetRoundWords with the batched
// reduced slots shipped as float32 (Options.CompressTier = "f32"): the
// k·slot batch packs two values per 64-bit wire word, ceil(k·slot/2);
// the bitmap and the exact-gradient check stay full-width.
func ActiveSetRoundWordsF32(d, k, a int) int64 {
	if k < 1 {
		k = 1
	}
	bitmap := int64((d + 63) / 64)
	slot := int64(a)*int64(a+1)/2 + int64(d)
	return bitmap + (int64(k)*slot+1)/2 + int64(d)
}

// ActiveSetRoundWordsI8 is ActiveSetRoundWords with the batched
// reduced slots shipped through the int8 dithered tier: the k·slot
// batch costs I8Words (one byte per value plus a 4-byte float32 scale
// per 64-value chunk); the bitmap and the exact-gradient check stay
// full-width.
func ActiveSetRoundWordsI8(d, k, a int) int64 {
	if k < 1 {
		k = 1
	}
	bitmap := int64((d + 63) / 64)
	slot := int64(a)*int64(a+1)/2 + int64(d)
	return bitmap + I8Words(int(int64(k)*slot)) + int64(d)
}

// ActiveSetRoundCosts is RCSFISTARoundCosts under screening with
// working-set size a: the stage-B fills touch only the a(a+1)/2 reduced
// Gram entries, and the round runs three tree collectives (bitmap
// agreement, batch allreduce, gradient check) instead of one, moving
// ActiveSetRoundWords words per tree edge.
func ActiveSetRoundCosts(p AlgoParams, a int) (compute, comm Cost) {
	k := p.K
	if k < 1 {
		k = 1
	}
	lg := float64(Log2Ceil(p.P))
	compute.Flops = int64(float64(k) * packedLen(a) * float64(p.MBar) * p.Fill / float64(p.P))
	comm.Messages = int64(3 * lg)
	comm.Words = int64(float64(ActiveSetRoundWords(p.D, k, a)) * lg)
	return compute, comm
}

// SupportTrajectory models the working-set size across rounds as a
// geometric decay from d toward floor (the converged support plus the
// margin band): each round closes half the remaining gap, the shape
// screening runs show once the iterate support settles. The returned
// slice has one entry per round, starts at d and never goes below
// floor.
func SupportTrajectory(d, floor, rounds int) []int {
	if rounds < 0 {
		rounds = 0
	}
	if floor < 0 {
		floor = 0
	}
	if floor > d {
		floor = d
	}
	out := make([]int, rounds)
	gap := float64(d - floor)
	for r := range out {
		out[r] = floor + int(math.Round(gap))
		gap /= 2
	}
	return out
}

// ActiveSetRuntime sums the modeled per-round seconds of a screened run
// over a support trajectory (one entry per round, e.g. from
// SupportTrajectory). Rounds execute serially — the screening engine
// cannot pipeline past the round-boundary KKT check — so compute and
// communication add.
func ActiveSetRuntime(m Machine, p AlgoParams, supports []int) float64 {
	total := 0.0
	for _, a := range supports {
		compute, comm := ActiveSetRoundCosts(p, a)
		total += m.Seconds(compute.Plus(comm))
	}
	return total
}
