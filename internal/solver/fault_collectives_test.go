package solver

import (
	"context"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
)

// TestFaultySolveCollectives pins every collective a faulty solve
// issues, per rank, on both round loops: at chan P = 4 under a plan
// with a transient drop, a transient corruption (whose detection is one
// extra OpMax word) and a two-round crash outage. A lost corruption
// vote, an extra poll, or a collective that takes another route through
// the communicator moves a count.
func TestFaultySolveCollectives(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.EvalEvery, o.MaxIter = 2, 4, 40
	o.Faults = &dist.FaultPlan{
		Seed: 21,
		Schedule: []dist.ScheduledFault{
			{Round: 2, Kind: dist.FaultDrop, Attempts: 1},
			{Round: 5, Kind: dist.FaultCorrupt, Rank: 2, Attempts: 1},
		},
		Crash: &dist.Crash{Rank: 1, Round: 8, Outage: 2, RestartSec: 1e-3},
	}
	const procs = 4
	type counts struct{ sum, max, shared, posted int }
	// One Gram fill, 19 posted batch attempts (blocking attempts post
	// and wait too), the corruption vote and the standalone
	// cancellation consensus of the two degraded rounds; the final
	// objective reads the Gram.
	want := counts{sum: 0, max: 3, shared: 1, posted: 19}
	for _, pipelined := range []bool{false, true} {
		counters := make([]*CallCounter, procs)
		wrap := func(c dist.Comm) dist.Comm {
			cc := &CallCounter{Comm: c}
			counters[c.Rank()] = cc
			return cc
		}
		res, _, err := engineWorld(t, "chan", procs, p, o, wrap, func(e *engine) (*Result, error) {
			return e.run(context.Background(), e, e, pipelined)
		})
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Faults; f.Retries == 0 || f.DegradedRounds != 2 {
			t.Fatalf("pipelined=%t: the plan did not fire: %+v", pipelined, f)
		}
		for rank, cc := range counters {
			got := counts{
				sum:    cc.Count("allreduce/sum", -1),
				max:    cc.Count("allreduce/max", -1),
				shared: cc.Count("allreduce_shared", -1),
				posted: cc.Count("iallreduce_shared", -1),
			}
			if got != want {
				t.Errorf("pipelined=%t rank %d: collectives %+v, want %+v", pipelined, rank, got, want)
			}
		}
	}
}
