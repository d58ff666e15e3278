package solvercore

import "github.com/hpcgo/rcsfista/internal/rng"

// StreamSampler draws Draw distinct indices from [0, N) using stream
// (Epoch, h) of Src — the shared sampling scheme of every solver here.
// The set of round (or Hessian slot) h is a pure function of the
// construction parameters and h, so every rank holding the same
// StreamSampler draws the identical set with zero communication.
// When FullWhenSaturated is set and Draw >= N it short-circuits to the
// identity set without consuming the stream, matching the RC-SFISTA
// engine; the distributed erm ProxNewton historically always consumed
// the stream, so it leaves the flag unset.
type StreamSampler struct {
	Src               rng.Source
	Epoch             int
	N, Draw           int
	FullWhenSaturated bool
}

// AppendSample appends the index set of round h to dst and returns the
// extended slice. Callers keep dst across rounds, so a warm draw
// allocates nothing.
func (s StreamSampler) AppendSample(dst []int, h int) []int {
	if s.FullWhenSaturated && s.Draw >= s.N {
		for i := 0; i < s.N; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	return s.Src.Stream(s.Epoch, h).AppendSample(dst, s.N, s.Draw)
}
