package solvercore

import "github.com/hpcgo/rcsfista/internal/dist"

// Exchanger performs stage C of a round: combining the local batch
// across ranks. Exchange returns the shared batch, or nil when the
// round is lost (fallible exchangers only) and the caller must skip.
type Exchanger interface {
	Exchange(local []float64) []float64
}

// AsyncExchanger additionally supports split-phase exchange for
// pipelined rounds: Post starts the collective nonblocking, Resolve
// blocks on it (running any retry policy) and returns the shared batch
// or nil. Between Post and Resolve the posted buffer must stay
// unmodified.
type AsyncExchanger interface {
	Exchanger
	Post(local []float64) Pending
	Resolve(p Pending) []float64
}

// Pending is one posted, not-yet-resolved exchange. Exactly one of
// req/att is set: req on the reliable path, att under a FaultPlan.
// tier records the wire tier a TieredExchanger posted at, so retries
// re-ship at the same tier the round was prepared for.
type Pending struct {
	req  *dist.Request
	att  *dist.PendingAttempt
	buf  []float64
	tier dist.Tier
}

// AllreduceExchanger is the reliable stage-C path: a plain (I)Allreduce
// on communicator C.
type AllreduceExchanger struct {
	C dist.Comm
}

// Exchange sums local across ranks and returns the shared result.
func (e AllreduceExchanger) Exchange(local []float64) []float64 {
	return e.C.AllreduceShared(local)
}

// Post starts the allreduce nonblocking.
func (e AllreduceExchanger) Post(local []float64) Pending {
	return Pending{req: e.C.IAllreduceShared(local), buf: local}
}

// Resolve blocks on the posted allreduce.
func (e AllreduceExchanger) Resolve(p Pending) []float64 {
	return p.req.Wait()
}

// IdentityExchanger is the degenerate single-process path: the local
// batch already is the global batch. Used by the sequential solvers
// (ProxSVRG, sequential ProxNewton) so they run the same Loop without
// a communicator.
type IdentityExchanger struct{}

// Exchange returns local unchanged.
func (IdentityExchanger) Exchange(local []float64) []float64 { return local }

// SegmentedExchanger allreduces local in place as consecutive segments
// of the given lengths — the distributed erm ProxNewton's historical
// wire format (one Allreduce per segment rather than one fused
// AllreduceShared), preserved for bit-identical message/word counts.
type SegmentedExchanger struct {
	C    dist.Comm
	Segs []int
}

// Exchange allreduces each segment of local in place and returns local.
func (e SegmentedExchanger) Exchange(local []float64) []float64 {
	off := 0
	for _, n := range e.Segs {
		e.C.Allreduce(local[off:off+n], dist.OpSum)
		off += n
	}
	return local
}
