package dist

import "github.com/hpcgo/rcsfista/internal/perf"

// SelfComm is the single-process communicator: Size() == 1, all
// collectives are local no-ops with zero communication cost. It lets
// the distributed solver drivers run sequentially without a World.
type SelfComm struct {
	tierForwarders
	machine perf.Machine
	cost    perf.Cost
}

// NewSelfComm returns a single-rank communicator charging against
// machine (only compute costs ever accrue).
func NewSelfComm(machine perf.Machine) *SelfComm {
	c := &SelfComm{machine: machine}
	c.to = c
	return c
}

var _ Comm = (*SelfComm)(nil)

// Rank returns 0.
func (c *SelfComm) Rank() int { return 0 }

// Size returns 1.
func (c *SelfComm) Size() int { return 1 }

// Barrier is a no-op.
func (c *SelfComm) Barrier() {}

// Allreduce is a no-op: the local buffer already holds the global value.
func (c *SelfComm) Allreduce(buf []float64, op Op) {}

// AllreduceShared returns a copy of local.
func (c *SelfComm) AllreduceShared(local []float64) []float64 {
	return combineOne(local, TierF64)
}

// IAllreduceShared returns an already-completed request holding a copy
// of local: with a single rank there is no communication to overlap.
func (c *SelfComm) IAllreduceShared(local []float64) *Request {
	return completedRequest(combineOne(local, TierF64))
}

// allreduceSharedTier returns local after the tier's single-rank
// combine: a lone rank still observes the quantization the collective
// semantics promise (combineOne), matching the chan and tcp backends
// at P = 1 bit for bit.
func (c *SelfComm) allreduceSharedTier(local []float64, t Tier) []float64 {
	return combineOne(local, t)
}

func (c *SelfComm) iallreduceSharedTier(local []float64, t Tier) *Request {
	return completedRequest(combineOne(local, t))
}

// Bcast is a no-op.
func (c *SelfComm) Bcast(buf []float64, root int) {}

// Reduce is a no-op.
func (c *SelfComm) Reduce(buf []float64, op Op, root int) {}

// Allgather returns a copy of local.
func (c *SelfComm) Allgather(local []float64) []float64 {
	out := make([]float64, len(local))
	copy(out, local)
	return out
}

// Send panics: a single rank has no peer.
func (c *SelfComm) Send(to int, msg []float64) { panic("dist: SelfComm has no peers") }

// Recv panics: a single rank has no peer.
func (c *SelfComm) Recv(from int) []float64 { panic("dist: SelfComm has no peers") }

// Cost exposes the accumulated (compute-only) cost.
func (c *SelfComm) Cost() *perf.Cost { return &c.cost }

// Machine returns the machine model.
func (c *SelfComm) Machine() perf.Machine { return c.machine }

// BlockRange splits n items into size contiguous blocks and returns the
// half-open range [lo, hi) owned by rank. Blocks differ in size by at
// most one; the first n%size ranks get the larger blocks. This is the
// column (sample) partition of Figure 1.
func BlockRange(n, size, rank int) (lo, hi int) {
	if size <= 0 || rank < 0 || rank >= size {
		panic("dist: invalid BlockRange arguments")
	}
	q, r := n/size, n%size
	lo = rank*q + min(rank, r)
	hi = lo + q
	if rank < r {
		hi++
	}
	return lo, hi
}
