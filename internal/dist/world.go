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

	// In-flight shared allreduce rounds, keyed by per-rank post order
	// (every rank posts the same sequence, the MPI contract).
	iarMu sync.Mutex
	iar   map[int]*iarRound

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
		iar:       make(map[int]*iarRound),
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
	if err != nil {
		// Re-arm for the next Run and drop what the failed run left
		// behind: queued point-to-point messages, and the registered
		// contributions and posted rounds an abort strands (a k-slot
		// Hessian batch in RC-SFISTA), which would otherwise stay
		// pinned in memory and visible to a subsequent Run.
		w.bar.reset()
		w.p2pMu.Lock()
		w.p2p = make(map[[2]int]chan []float64)
		w.p2pMu.Unlock()
		clear(w.contrib)
		w.iarMu.Lock()
		w.iar = make(map[int]*iarRound)
		w.iarMu.Unlock()
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
	w      *chanWorld
	rank   int
	iarSeq int // next shared-allreduce sequence number
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

// iarRound is the shared state of one in-flight shared allreduce: the
// per-rank contributions and the tier each was posted at, the combined
// result, and a done channel the background combiner closes when the
// result is published.
type iarRound struct {
	contrib [][]float64
	ctier   []Tier
	posted  int
	waited  int
	res     []float64
	errMsg  string
	done    chan struct{}
}

// combine reduces the round's contributions in rank order on a fresh
// slice at the round's tier. It runs after every rank has posted, so
// contrib is read without a lock; a length or tier disagreement is
// handed to every waiter instead of a result.
func (rd *iarRound) combine() {
	defer close(rd.done)
	if rd.errMsg = contribMismatch("AllreduceShared", rd.contrib, rd.ctier); rd.errMsg != "" {
		return
	}
	res := make([]float64, len(rd.contrib[0]))
	combine(res, rd.contrib, rd.ctier[0])
	rd.res = res
}

// iarGet returns (creating if needed) the in-flight round with the
// given sequence number.
func (w *chanWorld) iarGet(seq int) *iarRound {
	w.iarMu.Lock()
	defer w.iarMu.Unlock()
	rd, ok := w.iar[seq]
	if !ok {
		rd = &iarRound{contrib: make([][]float64, w.size), ctier: make([]Tier, w.size),
			done: make(chan struct{})}
		w.iar[seq] = rd
	}
	return rd
}

// postShared is the shared sum-allreduce at every tier: no bytes move
// in process, but the arithmetic is the wire's (combine) and the cost
// is the tier's footprint. The last rank to post hands the round to a
// background combiner goroutine; Wait parks on the round's done channel
// (or unwinds if the world aborts), charges the tree cost and returns
// the one result slice all ranks share.
func (c *worldComm) postShared(local []float64, tier Tier, base int) *Request {
	w := c.w
	seq := c.iarSeq
	c.iarSeq++
	rd := w.iarGet(seq)
	w.iarMu.Lock()
	rd.contrib[c.rank], rd.ctier[c.rank] = local, tier
	rd.posted++
	ready := rd.posted == w.size
	w.iarMu.Unlock()
	if ready {
		go rd.combine()
	}
	rank := c.rank
	n := len(local)
	return &Request{wait: func() []float64 {
		select {
		case <-rd.done:
		case <-w.bar.aborting():
			panic(errAborted)
		}
		if rd.errMsg != "" {
			panic(rd.errMsg)
		}
		w.prof.record(sharedKind(base, tier), n)
		chargeAllreduceTier(&w.costs[rank], w.size, n, tier)
		w.iarMu.Lock()
		rd.waited++
		if rd.waited == w.size {
			delete(w.iar, seq)
		}
		w.iarMu.Unlock()
		return rd.res
	}}
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
