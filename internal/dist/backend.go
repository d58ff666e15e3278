package dist

import (
	"fmt"
	"strings"
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
	// Machine returns the machine model costs are evaluated against.
	Machine() perf.Machine
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
	// TotalCost returns the sum of all rank costs.
	TotalCost() perf.Cost
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

// Machine returns the world's machine model.
func (w *worldBase) Machine() perf.Machine { return w.machine }

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

// TotalCost returns the sum of all rank costs.
func (w *worldBase) TotalCost() perf.Cost {
	var t perf.Cost
	for _, c := range w.costs {
		t.Add(c)
	}
	return t
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

// Backend constructs Worlds over one transport. Backends register at
// package init and are selected by name or "auto" (first supported in
// registration order), the way fakemachine's backend registry probes
// kvm/uml/qemu.
type Backend interface {
	// Name is the selector string ("chan", "tcp").
	Name() string
	// Supported probes whether the backend can run in this
	// environment, returning nil when it can and a reason when not.
	Supported() error
	// NewWorld creates a p-rank world charging costs against machine.
	NewWorld(p int, machine perf.Machine) (World, error)
}

// backendRegistry holds the registered backends in preference order
// (the order "auto" probes them).
var backendRegistry []Backend

// RegisterBackend appends a backend to the registry. Registration
// order is the "auto" preference order. Registering a duplicate name
// panics: backend names are CLI-facing selectors.
func RegisterBackend(b Backend) {
	for _, have := range backendRegistry {
		if have.Name() == b.Name() {
			panic(fmt.Sprintf("dist: backend %q registered twice", b.Name()))
		}
	}
	backendRegistry = append(backendRegistry, b)
}

// Backends lists the registered backend names in preference order.
func Backends() []string {
	out := make([]string, len(backendRegistry))
	for i, b := range backendRegistry {
		out[i] = b.Name()
	}
	return out
}

// LookupBackend resolves a backend by name. The name "auto" (or "")
// selects the first registered backend whose Supported probe passes.
func LookupBackend(name string) (Backend, error) {
	if name == "auto" || name == "" {
		for _, b := range backendRegistry {
			if b.Supported() == nil {
				return b, nil
			}
		}
		return nil, fmt.Errorf("dist: no supported backend (registered: %s)",
			strings.Join(Backends(), ", "))
	}
	for _, b := range backendRegistry {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown backend %q (registered: %s)",
		name, strings.Join(Backends(), ", "))
}

// NewWorldOn creates a p-rank world on the named backend ("auto"
// probes the registry in preference order). It is the transport-
// selecting counterpart of NewWorld.
func NewWorldOn(name string, p int, machine perf.Machine) (World, error) {
	b, err := LookupBackend(name)
	if err != nil {
		return nil, err
	}
	if err := b.Supported(); err != nil {
		return nil, fmt.Errorf("dist: backend %q not supported: %w", b.Name(), err)
	}
	return b.NewWorld(p, machine)
}

func init() {
	// Preference order: the in-process channels runtime always works
	// and is the fastest, so "auto" lands there; the TCP runtime is
	// the opt-in real-network transport.
	RegisterBackend(chanBackend{})
	RegisterBackend(tcpBackend{})
}

// chanBackend is the original in-process goroutines+channels runtime.
type chanBackend struct{}

func (chanBackend) Name() string { return "chan" }

// Supported always passes: shared memory needs no environment probe.
func (chanBackend) Supported() error { return nil }

func (chanBackend) NewWorld(p int, machine perf.Machine) (World, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: world size must be >= 1 (got %d)", p)
	}
	return newChanWorld(p, machine), nil
}
