package solvercore

import (
	"slices"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// Exchanger performs stage C of a round: combining the local batch
// across ranks. The round's one collective also carries the
// cancellation vote: every rank ships cancel (its context's state) in
// a trailer word behind the payload, the collective sums the flags,
// and Exchange returns the shared batch (nil when a fallible round is
// lost and the caller must skip) together with the Vote every rank
// reads from the same summed trailer.
type Exchanger interface {
	Exchange(local []float64, cancel bool) ([]float64, Vote)
}

// AsyncExchanger additionally supports split-phase exchange for
// pipelined rounds: Post starts the collective nonblocking, with the
// cancellation flag as it stands at the post, and Resolve blocks on it
// (running any retry policy) and returns the shared batch or nil plus
// the round's Vote. Between Post and Resolve the posted buffer must
// stay unmodified.
type AsyncExchanger interface {
	Exchanger
	Post(local []float64, cancel bool) Pending
	Resolve(p Pending) ([]float64, Vote)
}

// Vote is what a round's exchange says about cancellation. Every rank
// reads it from the same shared trailer (or the same fault verdicts),
// so all ranks act on it alike.
type Vote int

const (
	// VoteMissing: the round delivered no fresh batch — a fallible round
	// degraded to the last good batch, or skipped — so it carried no
	// vote. Loop falls back to the standalone consensus (checkCancel).
	VoteMissing Vote = iota
	// VoteContinue: no rank leaves at this round; every rank's flag was
	// 0.
	VoteContinue
	// VoteCancel: at least one rank's context was done.
	VoteCancel
)

// Pending is one posted, not-yet-resolved exchange. req is the
// in-flight collective, nil when a fault verdict lost the attempt in
// transit; verdict is the posted attempt's verdict under a FaultPlan.
// buf is the posted wire image (payload, then the vote trailer) and n
// its payload length; tier records the wire tier a TieredExchanger
// posted at, so retries re-ship at the same tier the round was
// prepared for.
type Pending struct {
	req     *dist.Request
	verdict dist.Verdict
	buf     []float64
	n       int
	tier    dist.Tier
}

// trailerCap is the most words the vote trailer adds to a payload: up
// to a chunk of zero pad under i8, then the flag. Buffers that may
// carry a trailer reserve it as spare capacity, so appending the
// trailer allocates nothing.
const trailerCap = perf.I8ChunkLen

// voteAt returns the index of the vote flag behind an n-value payload
// shipped at tier t. Under f64 and f32 it is n, where 0 and small flag
// sums are exact. Under i8 it opens a fresh perf.I8ChunkLen chunk, the
// gap zero-padded: the flag's chunk scale is then its own, so a flag of
// 1 survives beside payload values of any size, and a flag of 0 leaves
// every payload scale, code and error-feedback residual as it was.
func voteAt(n int, t dist.Tier) int {
	if t == dist.TierI8 {
		return (n + perf.I8ChunkLen - 1) / perf.I8ChunkLen * perf.I8ChunkLen
	}
	return n
}

// appendVote extends payload by the vote trailer for tier t: zero pad
// up to voteAt, then the flag (1 when cancel). On a buffer with
// trailerCap spare capacity it writes in place and allocates nothing.
func appendVote(payload []float64, cancel bool, t dist.Tier) []float64 {
	n, at := len(payload), voteAt(len(payload), t)
	wire := slices.Grow(payload, at+1-n)[:at+1]
	clear(wire[n:at])
	wire[at] = 0
	if cancel {
		wire[at] = 1
	}
	return wire
}

// readVote splits a shared wire image into its n-value payload and the
// vote its trailer carries. The flags were summed (and, under i8,
// quantized to a positive value), so any positive trailer is a cancel.
// An image with no trailer carries no vote.
func readVote(shared []float64, n int, t dist.Tier) ([]float64, Vote) {
	if len(shared) <= n {
		return shared, VoteMissing
	}
	if shared[voteAt(n, t)] > 0 {
		return shared[:n], VoteCancel
	}
	return shared[:n], VoteContinue
}

// refundVote takes the trailer back out of c's cost after one attempt
// of a tier-t collective that shipped a wire-value image of an n-value
// payload. The vote is control, not algorithm, so a round is billed
// for its payload alone and Result.Cost matches the closed forms.
func refundVote(c dist.Comm, n, wire int, t dist.Tier) {
	extra := dist.AllreduceCostTier(c.Size(), wire, t).Sub(dist.AllreduceCostTier(c.Size(), n, t))
	*c.Cost() = c.Cost().Sub(extra)
}

// SegmentedExchanger allreduces local in place as consecutive segments
// of the given lengths — the distributed erm ProxNewton's historical
// wire format (one Allreduce per segment rather than one fused
// AllreduceShared), preserved for bit-identical message/word counts.
// The vote trailer rides the last segment.
type SegmentedExchanger struct {
	C    dist.Comm
	Segs []int
}

// Exchange allreduces each segment of local in place, the last one
// with the vote trailer, and returns local.
func (e SegmentedExchanger) Exchange(local []float64, cancel bool) ([]float64, Vote) {
	wire := appendVote(local, cancel, dist.TierF64)
	off, last := 0, len(e.Segs)-1
	for _, n := range e.Segs[:last] {
		e.C.Allreduce(wire[off:off+n], dist.OpSum)
		off += n
	}
	e.C.Allreduce(wire[off:], dist.OpSum)
	refundVote(e.C, len(local)-off, len(wire)-off, dist.TierF64)
	return readVote(wire, len(local), dist.TierF64)
}
