package dist

import "github.com/hpcgo/rcsfista/internal/perf"

// SelfComm is the single-process communicator: Size() == 1, so every
// collective takes the P = 1 return of collectives — local no-ops with
// zero communication cost, the shared allreduce a rounded copy
// (combineOne). It lets the distributed solver drivers run sequentially
// without a World.
type SelfComm struct {
	collectives
	machine perf.Machine
	cost    perf.Cost
}

// NewSelfComm returns a single-rank communicator charging against
// machine (only compute costs ever accrue).
func NewSelfComm(machine perf.Machine) *SelfComm {
	c := &SelfComm{machine: machine}
	c.bind(c, nil)
	return c
}

var _ Comm = (*SelfComm)(nil)

// Rank returns 0.
func (c *SelfComm) Rank() int { return 0 }

// Size returns 1.
func (c *SelfComm) Size() int { return 1 }

// The exchanger of a world of one is never reached.
func (c *SelfComm) exchange([]float64, int, int) [][]float64    { panic("dist: SelfComm has no peers") }
func (c *SelfComm) release([][]float64)                         {}
func (c *SelfComm) postShared([]float64, Tier) func() []float64 { panic("dist: SelfComm has no peers") }

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
