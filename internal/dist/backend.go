package dist

import (
	"fmt"
	"sync"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// World is the P-rank execution substrate a distributed solve runs on.
// Two transport backends implement it today: the in-process
// goroutines+channels runtime ("chan", the original simulated MPI) and
// the real-socket TCP runtime ("tcp", localhost loopback with the same
// rank-order deterministic reductions). Both charge identical
// alpha-beta-gamma costs through the shared accounting helpers, so a
// solve is bit-identical — iterates, objective trace AND cost counters
// — across transports. The golden fixture suite is the oracle for that
// guarantee (go test -run TestGolden -transport=tcp).
type World interface {
	// Size returns the number of ranks.
	Size() int
	// Run executes fn on every rank concurrently and waits for
	// completion. The first non-nil error (or recovered panic) aborts
	// the world; ranks blocked in collectives are released and Run
	// returns the error. A World can be Run multiple times; costs
	// accumulate across runs until ResetCosts.
	Run(fn func(c Comm) error) error
	// RankCost returns the accumulated cost of rank r.
	RankCost(r int) perf.Cost
	// MaxCost returns the component-wise maximum cost over ranks — the
	// bulk-synchronous critical path.
	MaxCost() perf.Cost
	// ModeledSeconds evaluates the alpha-beta-gamma model on the
	// critical path (max over ranks).
	ModeledSeconds() float64
	// ResetCosts clears all per-rank cost counters.
	ResetCosts()
	// Profile returns per-collective usage statistics for all runs.
	Profile() []ProfileEntry
	// ProfileString renders the profile as a small table.
	ProfileString() string
}

// worldBase is what every World shares: its shape, the per-rank cost
// counters, the collective profile and the rank-goroutine runner.
// Backends embed it and add Run.
type worldBase struct {
	size    int
	machine perf.Machine
	costs   []perf.Cost
	prof    profile
}

func newWorldBase(p int, machine perf.Machine) worldBase {
	return worldBase{size: p, machine: machine, costs: make([]perf.Cost, p)}
}

// Size returns the number of ranks.
func (w *worldBase) Size() int { return w.size }

// RankCost returns the accumulated cost of rank r.
func (w *worldBase) RankCost(r int) perf.Cost { return w.costs[r] }

// MaxCost returns the component-wise maximum cost over ranks — the
// bulk-synchronous critical path.
func (w *worldBase) MaxCost() perf.Cost {
	var m perf.Cost
	for _, c := range w.costs {
		m = m.Max(c)
	}
	return m
}

// ModeledSeconds evaluates the alpha-beta-gamma model on the critical
// path (max over ranks), the quantity the speedup figures report.
func (w *worldBase) ModeledSeconds() float64 {
	return w.machine.Seconds(w.MaxCost())
}

// ResetCosts clears all per-rank cost counters.
func (w *worldBase) ResetCosts() { clear(w.costs) }

// Profile returns per-collective usage statistics for all runs of this
// world.
func (w *worldBase) Profile() []ProfileEntry { return w.prof.entries() }

// ProfileString renders the profile as a small table.
func (w *worldBase) ProfileString() string { return w.prof.table() }

// runRanks executes fn(rank) on one goroutine per rank and waits for
// all of them. The first rank to return an error or panic calls abort,
// which must release the ranks parked in collectives; those unwind with
// errAborted, which is swallowed as not a root cause. The error of the
// lowest failing rank is returned.
func (w *worldBase) runRanks(fn func(rank int) error, abort func()) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil && rec != errAborted {
					errs[rank] = fmt.Errorf("dist: rank %d panicked: %v", rank, rec)
					abort()
				}
			}()
			if err := fn(rank); err != nil {
				errs[rank] = err
				abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NewWorldOn creates a p-rank world on the named transport: "chan"
// (or "auto", or "") is the in-process goroutines+channels runtime,
// "tcp" the loopback-socket one. It is the transport-selecting
// counterpart of NewWorld.
func NewWorldOn(name string, p int, machine perf.Machine) (World, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: world size must be >= 1 (got %d)", p)
	}
	switch name {
	case "chan", "auto", "":
		return newChanWorld(p, machine), nil
	case "tcp":
		return &tcpWorld{worldBase: newWorldBase(p, machine)}, nil
	}
	return nil, fmt.Errorf("dist: unknown transport %q (want chan, tcp or auto)", name)
}
