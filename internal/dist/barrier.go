package dist

import (
	"errors"
	"runtime"
	"sync"
)

// errAborted is the panic value used to unwind ranks parked in a
// collective after another rank fails; World.Run recognizes and
// swallows it so only the root-cause error surfaces.
var errAborted = errors.New("dist: world aborted")

// barrier is a reusable phase barrier for n goroutines with abort
// support (so a failing rank cannot deadlock the others).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	phase   uint64
	aborted bool
	// abortCh is closed on abort so operations blocked outside the
	// condition variable (point-to-point receives) can also unwind.
	abortCh chan struct{}
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n, abortCh: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// aborting returns a channel closed when the world aborts.
func (b *barrier) aborting() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.abortCh
}

// wait blocks until all n participants arrive. If the barrier is
// aborted while waiting (or already aborted), wait panics with
// errAborted.
func (b *barrier) wait() {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		panic(errAborted)
	}
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		// Broadcast put a released rank in this P's run-next slot, which
		// idle Ps seldom steal: without the yield it would wait for this
		// goroutine to block, and a solve's ranks would take turns on one P.
		runtime.Gosched()
		return
	}
	for b.phase == phase && !b.aborted {
		b.cond.Wait()
	}
	aborted := b.aborted
	b.mu.Unlock()
	if aborted {
		panic(errAborted)
	}
}

// abort releases all waiters; subsequent waits panic immediately.
func (b *barrier) abort() {
	b.mu.Lock()
	if !b.aborted {
		b.aborted = true
		close(b.abortCh)
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reset re-arms an aborted barrier for the next Run.
func (b *barrier) reset() {
	b.mu.Lock()
	if b.aborted {
		b.abortCh = make(chan struct{})
	}
	b.aborted = false
	b.count = 0
	b.mu.Unlock()
}
