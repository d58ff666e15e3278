package dist

import (
	"sync"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// chanWorld owns the shared state of a P-rank run on the in-process
// goroutines+channels transport: P ranks execute as P goroutines and
// collectives move data through shared memory. Create with NewWorld
// (or the "chan" backend), execute with Run, then inspect per-rank
// costs.
type chanWorld struct {
	worldBase

	bar     *barrier
	contrib [][]float64 // exchange registration, one slot per rank
	specs   []*tierSpec // the tier each rank entered the shared allreduce at
	result  []float64   // the shared allreduce's result, registered by rank 0

	p2pMu sync.Mutex
	p2p   map[[2]int]chan []float64
}

// NewWorld creates a world of p ranks charging costs against machine
// on the default in-process channels transport. Transport-selecting
// callers use NewWorldOn instead.
func NewWorld(p int, machine perf.Machine) World {
	if p < 1 {
		panic("dist: world size must be >= 1")
	}
	return newChanWorld(p, machine)
}

func newChanWorld(p int, machine perf.Machine) *chanWorld {
	return &chanWorld{
		worldBase: newWorldBase(p, machine),
		bar:       newBarrier(p),
		contrib:   make([][]float64, p),
		specs:     make([]*tierSpec, p),
		p2p:       make(map[[2]int]chan []float64),
	}
}

// Run executes fn on every rank concurrently and waits for completion
// (worldBase.runRanks). A World can be Run multiple times; costs
// accumulate across runs until ResetCosts.
func (w *chanWorld) Run(fn func(c Comm) error) error {
	err := w.runRanks(func(rank int) error {
		c := &worldComm{w: w, rank: rank}
		c.bind(c, &w.prof)
		return fn(c)
	}, w.bar.abort)
	// The last registrations (a k-slot Hessian batch and its shared
	// result in RC-SFISTA) would otherwise stay pinned in memory.
	clear(w.contrib)
	w.result = nil
	if err != nil {
		// Re-arm for the next Run and drop the point-to-point messages
		// the failed run left queued, which a subsequent Run would see.
		w.bar.reset()
		w.p2pMu.Lock()
		w.p2p = make(map[[2]int]chan []float64)
		w.p2pMu.Unlock()
	}
	return err
}

func (w *chanWorld) channel(from, to int) chan []float64 {
	key := [2]int{from, to}
	w.p2pMu.Lock()
	defer w.p2pMu.Unlock()
	ch, ok := w.p2p[key]
	if !ok {
		ch = make(chan []float64, 64)
		w.p2p[key] = ch
	}
	return ch
}

// worldComm is the per-rank communicator handle.
type worldComm struct {
	collectives
	w    *chanWorld
	rank int
}

var _ Comm = (*worldComm)(nil)

func (c *worldComm) Rank() int             { return c.rank }
func (c *worldComm) Size() int             { return c.w.size }
func (c *worldComm) Cost() *perf.Cost      { return &c.w.costs[c.rank] }
func (c *worldComm) Machine() perf.Machine { return c.w.machine }

// exchange registers local and meets the other ranks at the barrier:
// in shared memory every rank can then read every registration,
// whatever the pattern asked for.
func (c *worldComm) exchange(local []float64, _, _ int) [][]float64 {
	c.w.contrib[c.rank] = local
	c.w.bar.wait()
	return c.w.contrib
}

// release is the second barrier: no rank touches its registered buffer
// again, or registers the next one, before every rank has read.
func (c *worldComm) release([][]float64) { c.w.bar.wait() }

// postShared does nothing at post: in shared memory a posted collective
// makes no progress before its Wait, which the MPI contract allows. At
// Wait each rank registers its RAW payload and tier, and rank 0 the one
// result slice all ranks return; after the barrier every owner folds
// its segment of the raw payloads straight into that slice
// (reduceSegment), and the second barrier publishes the result.
func (c *worldComm) postShared(local []float64, t Tier) func() []float64 {
	return func() []float64 {
		w := c.w
		w.specs[c.rank] = &tiers[t]
		if c.rank == 0 {
			w.result = make([]float64, len(local))
		}
		contrib := c.exchange(local, allRanks, allRanks)
		res := w.result
		if takesContrib(len(local), c.rank) {
			reduceSegment(res, c.rank, contrib, w.specs, true, nil)
		}
		c.release(contrib)
		return res
	}
}

// Send transmits a copy of msg to rank to (eager, buffered).
func (c *worldComm) Send(to int, msg []float64) {
	if to < 0 || to >= c.w.size {
		panic("dist: Send to invalid rank")
	}
	cp := make([]float64, len(msg))
	copy(cp, msg)
	c.w.channel(c.rank, to) <- cp
	c.w.prof.record(kindSend, len(msg))
	chargeP2P(c.Cost(), len(msg))
}

// Recv receives the next message sent by rank from. If the world
// aborts (another rank failed) while waiting, Recv unwinds instead of
// deadlocking.
func (c *worldComm) Recv(from int) []float64 {
	if from < 0 || from >= c.w.size {
		panic("dist: Recv from invalid rank")
	}
	select {
	case msg := <-c.w.channel(from, c.rank):
		c.w.prof.record(kindRecv, len(msg))
		chargeP2P(c.Cost(), len(msg))
		return msg
	case <-c.w.bar.aborting():
		panic(errAborted)
	}
}
