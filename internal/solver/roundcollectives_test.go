package solver

import (
	"context"
	"fmt"
	"testing"

	"github.com/hpcgo/rcsfista/internal/data"
	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/mat"
)

// CallCounter is a dist.Comm that logs every collective one rank
// issues. Round, when set, stamps each entry with the round counter at
// the call. VoteAt, when non-zero, makes it also run a standalone
// cancellation consensus — an OpMax scalar allreduce with its cost
// rolled back — before every collective of that payload length: the
// stage-C batch's, so the counted run pays one extra collective per
// round, as a loop that polls cancellation with its own allreduce
// does. Exported for the cocoa and erm cases of the external test
// package.
type CallCounter struct {
	dist.Comm
	Round  func() int
	VoteAt int
	Log    []Call
}

// Call is one logged collective: its kind, payload length and round
// stamp.
type Call struct {
	Op    string
	N     int
	Round int
}

func (c *CallCounter) log(op string, n int) {
	if c.VoteAt != 0 && n == c.VoteAt {
		saved := *c.Cost()
		dist.AllreduceScalar(c.Comm, 0, dist.OpMax)
		*c.Cost() = saved
		c.record("allreduce/max", 1)
	}
	c.record(op, n)
}

func (c *CallCounter) record(op string, n int) {
	r := 0
	if c.Round != nil {
		r = c.Round()
	}
	c.Log = append(c.Log, Call{op, n, r})
}

// Count returns how many logged calls match op (every call when op is
// empty) and payload length n (any when n < 0).
func (c *CallCounter) Count(op string, n int) int {
	k := 0
	for _, call := range c.Log {
		if (op == "" || call.Op == op) && (n < 0 || call.N == n) {
			k++
		}
	}
	return k
}

func (c *CallCounter) Barrier() { c.log("barrier", 0); c.Comm.Barrier() }

func (c *CallCounter) Allreduce(buf []float64, op dist.Op) {
	name := "allreduce/sum"
	if op != dist.OpSum {
		name = "allreduce/max"
	}
	c.log(name, len(buf))
	c.Comm.Allreduce(buf, op)
}

func (c *CallCounter) AllreduceShared(local []float64) []float64 {
	c.log("allreduce_shared", len(local))
	return c.Comm.AllreduceShared(local)
}

func (c *CallCounter) IAllreduceShared(local []float64) *dist.Request {
	c.log("iallreduce_shared", len(local))
	return c.Comm.IAllreduceShared(local)
}

func (c *CallCounter) Bcast(buf []float64, root int) {
	c.log("bcast", len(buf))
	c.Comm.Bcast(buf, root)
}

func (c *CallCounter) Reduce(buf []float64, op dist.Op, root int) {
	c.log("reduce", len(buf))
	c.Comm.Reduce(buf, op, root)
}

func (c *CallCounter) Allgather(local []float64) []float64 {
	c.log("allgather", len(local))
	return c.Comm.Allgather(local)
}

// TestOneCollectivePerRound pins the round at exactly one collective:
// at P = 2 over chan and tcp, on both round loops (a pipelined round's
// batch is posted where a blocking round exchanges it), f64, k = 1, a
// checkpoint after every update and no snapshot refreshes, the solve's
// first collective is the resident Gram's fill, the only one beside the
// batches, before round 0; every round then issues its stage-C batch
// (payload plus vote trailer) and nothing else, its objective read from
// the Gram, up to the last round, whose final checkpoint takes its data
// pass. No round polls cancellation with a collective of its own.
func TestOneCollectivePerRound(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.K, o.S = 1, 1
	o.VarianceReduced = false
	for _, leg := range []struct {
		backend   string
		pipelined bool
	}{{"chan", false}, {"chan", true}, {"tcp", false}, {"tcp", true}} {
		backend := fmt.Sprintf("%s/pipelined=%t", leg.backend, leg.pipelined)
		const procs = 2
		counters := make([]*CallCounter, procs)
		wrap := func(c dist.Comm) dist.Comm {
			cc := &CallCounter{Comm: c}
			counters[c.Rank()] = cc
			return cc
		}
		ctx, cancel := context.WithCancel(context.Background())
		res, _, err := engineWorld(t, leg.backend, procs, p, o, wrap, func(e *engine) (*Result, error) {
			counters[e.c.Rank()].Round = func() int { return e.rec.Rounds }
			return e.run(ctx, e, e, leg.pipelined)
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != o.MaxIter {
			t.Fatalf("%s: %d rounds, want MaxIter %d", backend, res.Rounds, o.MaxIter)
		}
		fill := Call{"allreduce_shared", mat.PackedLen(p.X.Rows) + p.X.Rows + 1, 0}
		for rank, cc := range counters {
			name := fmt.Sprintf("%s rank %d", backend, rank)
			if n := cc.Count("allreduce/max", -1); n != 0 {
				t.Errorf("%s: %d standalone OpMax collectives, want none", name, n)
			}
			if cc.Log[0] != fill {
				t.Errorf("%s: first collective %+v, want the fill %+v", name, cc.Log[0], fill)
			}
			// Calls stamped r ran after round r's exchange: round r+1's
			// batch, after the fill at r = 0.
			perRound := make([]int, res.Rounds+1)
			for _, call := range cc.Log {
				perRound[call.Round]++
			}
			for r, n := range perRound {
				want := 1 // the next batch; after the last round, the final data pass
				if r == 0 {
					want = 2 // the fill and the first batch
				}
				if n != want {
					t.Errorf("%s: %d collectives after round %d, want %d", name, n, r, want)
				}
			}
		}
	}
}

// scanProbe is the engine's InnerPass that counts the rounds ending in
// an exact KKT scan.
type scanProbe struct {
	*engine
	scans int
}

func (p *scanProbe) Process(shared []float64) bool {
	stop := p.engine.Process(shared)
	if p.as.sinceScan == 0 {
		p.scans++
	}
	return stop
}

// TestScanOnSnapshotIterateTakesNoCollective pins the exact-state memo
// on a VR + ActiveSet f64 solve at P = 2 over chan and tcp. With one
// snapshot refresh per round (EpochLen = k·S), the initial screen and
// every KKT scan land on a snapshot iterate and read its exact state:
// the d-word collectives are exactly the snapshots', one at w0 and one
// per round, redo rounds included.
func TestScanOnSnapshotIterateTakesNoCollective(t *testing.T) {
	p, err := data.LoadWith("covtype", 240, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := gramOpts(p)
	o.ActiveSet = true
	o.K, o.S, o.EpochLen = 2, 1, 2
	for _, backend := range []string{"chan", "tcp"} {
		const procs = 2
		counters := make([]*CallCounter, procs)
		probes := make([]*scanProbe, procs)
		wrap := func(c dist.Comm) dist.Comm {
			cc := &CallCounter{Comm: c}
			counters[c.Rank()] = cc
			return cc
		}
		res, _, err := engineWorld(t, backend, procs, p, o, wrap, func(e *engine) (*Result, error) {
			probe := &scanProbe{engine: e}
			probes[e.c.Rank()] = probe
			return e.run(context.Background(), e, probe, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, cc := range counters {
			name := fmt.Sprintf("%s rank %d", backend, rank)
			if probes[rank].scans == 0 {
				t.Fatalf("%s: no KKT scan ran in %d rounds", name, res.Rounds)
			}
			if n, want := cc.Count("allreduce/sum", p.X.Rows), 1+res.Rounds; n != want {
				t.Errorf("%s: %d d-word collectives over %d rounds and %d scans, want %d (the snapshots')",
					name, n, res.Rounds, probes[rank].scans, want)
			}
		}
	}
}
