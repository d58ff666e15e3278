package dist

import (
	"fmt"
	"sync"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// chanWorld owns the shared state of a P-rank run on the in-process
// goroutines+channels transport: P ranks execute as P goroutines and
// collectives move data through shared memory. Create with NewWorld
// (or the "chan" backend), execute with Run, then inspect per-rank
// costs.
type chanWorld struct {
	size    int
	machine perf.Machine

	bar     *barrier
	contrib [][]float64 // collective input registration, one slot per rank
	ctier   []Tier      // tier each rank entered the shared allreduce at
	shared  []float64   // collective output published by rank 0
	scratch []float64   // reused reduction buffer for Allreduce
	lens    []int       // Allgather per-rank lengths

	costs []perf.Cost
	prof  profile

	// In-flight nonblocking allreduce rounds, keyed by per-rank post
	// order (every rank posts the same sequence, the MPI contract).
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
		size:    p,
		machine: machine,
		bar:     newBarrier(p),
		contrib: make([][]float64, p),
		ctier:   make([]Tier, p),
		lens:    make([]int, p),
		costs:   make([]perf.Cost, p),
		iar:     make(map[int]*iarRound),
		p2p:     make(map[[2]int]chan []float64),
	}
}

// Size returns the number of ranks.
func (w *chanWorld) Size() int { return w.size }

// Run executes fn on every rank concurrently and waits for completion.
// The first non-nil error (or recovered panic) aborts the world: ranks
// blocked in collectives are released and Run returns the error. A
// World can be Run multiple times; costs accumulate across runs until
// ResetCosts.
func (w *chanWorld) Run(fn func(c Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if rec == errAborted {
						// Released from a collective after another
						// rank failed; not a root cause.
						return
					}
					errs[rank] = fmt.Errorf("dist: rank %d panicked: %v", rank, rec)
					w.bar.abort()
				}
			}()
			c := &worldComm{w: w, rank: rank}
			c.to = c
			if err := fn(c); err != nil {
				errs[rank] = err
				w.bar.abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Re-arm for the next Run and drop any stale point-to-point
			// messages the failed run left queued.
			w.bar.reset()
			w.p2pMu.Lock()
			w.p2p = make(map[[2]int]chan []float64)
			w.p2pMu.Unlock()
			// Release the collective registration state too: an abort
			// can strand every rank's last contribution (a k-slot
			// Hessian batch in RC-SFISTA) in contrib/shared/scratch,
			// pinning it in memory and leaving stale slices visible to
			// a subsequent Run.
			for i := range w.contrib {
				w.contrib[i] = nil
			}
			w.shared = nil
			w.scratch = nil
			for i := range w.lens {
				w.lens[i] = 0
			}
			w.iarMu.Lock()
			w.iar = make(map[int]*iarRound)
			w.iarMu.Unlock()
			return err
		}
	}
	return nil
}

// RankCost returns the accumulated cost of rank r.
func (w *chanWorld) RankCost(r int) perf.Cost { return w.costs[r] }

// MaxCost returns the component-wise maximum cost over ranks — the
// bulk-synchronous critical path.
func (w *chanWorld) MaxCost() perf.Cost {
	var m perf.Cost
	for _, c := range w.costs {
		m = m.Max(c)
	}
	return m
}

// TotalCost returns the sum of all rank costs.
func (w *chanWorld) TotalCost() perf.Cost {
	var t perf.Cost
	for _, c := range w.costs {
		t.Add(c)
	}
	return t
}

// ModeledSeconds evaluates the alpha-beta-gamma model on the critical
// path (max over ranks), the quantity the speedup figures report.
func (w *chanWorld) ModeledSeconds() float64 {
	return w.machine.Seconds(w.MaxCost())
}

// ResetCosts clears all per-rank cost counters.
func (w *chanWorld) ResetCosts() {
	for i := range w.costs {
		w.costs[i] = perf.Cost{}
	}
}

// Machine returns the world's machine model.
func (w *chanWorld) Machine() perf.Machine { return w.machine }

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
	tierForwarders
	w      *chanWorld
	rank   int
	iarSeq int // next nonblocking-collective sequence number
}

var _ Comm = (*worldComm)(nil)

func (c *worldComm) Rank() int             { return c.rank }
func (c *worldComm) Size() int             { return c.w.size }
func (c *worldComm) Cost() *perf.Cost      { return &c.w.costs[c.rank] }
func (c *worldComm) Machine() perf.Machine { return c.w.machine }

// Barrier synchronizes all ranks and charges a log2(P)-depth
// synchronization (1 word per message).
func (c *worldComm) Barrier() {
	if c.w.size == 1 {
		return
	}
	c.w.bar.wait()
	c.w.prof.record(kindBarrier, 0)
	chargeBarrier(c.Cost(), c.w.size)
}

// Allreduce combines buf across ranks and leaves the result everywhere.
// Cost: recursive-doubling — log2(P) messages of len(buf) words plus
// the reduction flops.
func (c *worldComm) Allreduce(buf []float64, op Op) {
	w := c.w
	if w.size == 1 {
		return
	}
	w.contrib[c.rank] = buf
	w.bar.wait()
	if c.rank == 0 {
		if cap(w.scratch) < len(buf) {
			w.scratch = make([]float64, len(buf))
		}
		res := w.scratch[:len(buf)]
		copy(res, w.contrib[0])
		for r := 1; r < w.size; r++ {
			if len(w.contrib[r]) != len(buf) {
				panic(fmt.Sprintf("dist: Allreduce length mismatch: rank 0 has %d, rank %d has %d",
					len(buf), r, len(w.contrib[r])))
			}
			op.combine(res, w.contrib[r])
		}
		w.shared = res
	}
	w.bar.wait()
	copy(buf, w.shared)
	w.bar.wait() // all ranks copied before the scratch buffer is reused
	w.prof.record(kindAllreduce, len(buf))
	chargeAllreduce(c.Cost(), w.size, len(buf))
}

// AllreduceShared sums local across ranks and hands every rank the same
// freshly allocated, read-only result slice. Communication cost is
// identical to Allreduce.
func (c *worldComm) AllreduceShared(local []float64) []float64 {
	return c.allreduceSharedTier(local, TierF64)
}

// allreduceSharedTier is the blocking shared sum-allreduce at every
// tier: no bytes move in process, but the arithmetic is the wire's
// (combine) and the cost is the tier's footprint.
func (c *worldComm) allreduceSharedTier(local []float64, tier Tier) []float64 {
	w := c.w
	if w.size == 1 {
		return combineOne(local, tier)
	}
	w.contrib[c.rank], w.ctier[c.rank] = local, tier
	w.bar.wait()
	if c.rank == 0 {
		if msg := contribMismatch("AllreduceShared", w.contrib, w.ctier); msg != "" {
			panic(msg)
		}
		res := make([]float64, len(local))
		combine(res, w.contrib, tier)
		w.shared = res
	}
	w.bar.wait()
	out := w.shared
	w.bar.wait()
	w.prof.record(sharedKind(kindAllreduceShared, tier), len(local))
	chargeAllreduceTier(c.Cost(), w.size, len(local), tier)
	return out
}

// iarRound is the shared state of one in-flight nonblocking allreduce:
// the per-rank contributions and the tier each was posted at, the
// combined result, and a done channel the background combiner closes
// when the result is published.
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
// slice — the exact arithmetic sequence of the blocking collective at
// the round's tier, so the nonblocking result is bit-identical to the
// blocking one. It runs after every rank has posted, so contrib is
// read without a lock; a length or tier disagreement is handed to
// every waiter instead of a result.
func (rd *iarRound) combine() {
	defer close(rd.done)
	if rd.errMsg = contribMismatch("IAllreduceShared", rd.contrib, rd.ctier); rd.errMsg != "" {
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

// IAllreduceShared posts the nonblocking sum-allreduce. The last rank
// to post hands the round to a background combiner goroutine; Wait
// parks on the round's done channel (or unwinds if the world aborts),
// charges the same recursive-doubling tree cost AllreduceShared
// charges, and returns the shared read-only result. Requests resolve
// in post order per rank; every posted request must be waited before
// the rank's Run function returns.
func (c *worldComm) IAllreduceShared(local []float64) *Request {
	return c.iallreduceSharedTier(local, TierF64)
}

// iallreduceSharedTier is the nonblocking post/wait machinery at every
// tier; the tier picks the arithmetic and the accounting.
func (c *worldComm) iallreduceSharedTier(local []float64, tier Tier) *Request {
	w := c.w
	if w.size == 1 {
		return completedRequest(combineOne(local, tier))
	}
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
		w.prof.record(sharedKind(kindIAllreduceShared, tier), n)
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

// Bcast copies root's buffer into every rank's buf. Cost: binomial
// tree — log2(P) messages of len(buf) words.
func (c *worldComm) Bcast(buf []float64, root int) {
	w := c.w
	if w.size == 1 {
		return
	}
	if c.rank == root {
		w.shared = buf
	}
	w.bar.wait()
	if c.rank != root {
		if len(w.shared) != len(buf) {
			panic("dist: Bcast length mismatch")
		}
		copy(buf, w.shared)
	}
	w.bar.wait()
	w.prof.record(kindBcast, len(buf))
	chargeBcast(c.Cost(), w.size, len(buf))
}

// Reduce combines buf across ranks into root's buf. Cost: binomial
// tree — log2(P) messages plus reduction flops.
func (c *worldComm) Reduce(buf []float64, op Op, root int) {
	w := c.w
	if w.size == 1 {
		return
	}
	w.contrib[c.rank] = buf
	w.bar.wait()
	if c.rank == root {
		for r := 0; r < w.size; r++ {
			if r == root {
				continue
			}
			if len(w.contrib[r]) != len(buf) {
				panic("dist: Reduce length mismatch")
			}
			op.combine(buf, w.contrib[r])
		}
	}
	w.bar.wait()
	w.prof.record(kindReduce, len(buf))
	chargeReduce(c.Cost(), w.size, len(buf))
}

// Allgather concatenates per-rank slices in rank order. Cost: ring —
// P-1 messages, moving the full concatenation minus the local part.
func (c *worldComm) Allgather(local []float64) []float64 {
	w := c.w
	if w.size == 1 {
		out := make([]float64, len(local))
		copy(out, local)
		return out
	}
	w.contrib[c.rank] = local
	w.lens[c.rank] = len(local)
	w.bar.wait()
	if c.rank == 0 {
		total := 0
		for _, n := range w.lens {
			total += n
		}
		res := make([]float64, 0, total)
		for r := 0; r < w.size; r++ {
			res = append(res, w.contrib[r]...)
		}
		w.shared = res
	}
	w.bar.wait()
	out := w.shared
	w.bar.wait()
	w.prof.record(kindAllgather, len(local))
	chargeAllgather(c.Cost(), w.size, len(local), len(out))
	return out
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
